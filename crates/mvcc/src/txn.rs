//! Epoch-pinned write transactions over any [`SnapshotSource`].
//!
//! A [`WriteTxn`] pins a read epoch at [`WriteTxn::begin`], buffers its
//! write set against that view (reads-your-own-writes for point lookups),
//! and publishes the whole set atomically at [`WriteTxn::commit`] after a
//! **first-committer-wins** validation: if any transaction or autocommit
//! write that committed after this transaction's begin touched a key in
//! this transaction's write set, the commit fails with
//! [`GdbError::TxnConflict`] and nothing is applied.
//!
//! ## Conflict detection
//!
//! Every source keeps a [`TxnLog`]: a monotone commit sequence number plus
//! a bounded deque of `(seq, write-set keys)` for recent commits. Autocommit
//! writes participate too — each source's `with_write` wraps the live
//! engine in a [`KeyRecorder`] that derives the touched [`TxnKey`]s and
//! appends them on success. Validation is write-set vs write-set
//! (snapshot-isolation style): read dependencies are *not* tracked, and a
//! write whose keys were trimmed out of the bounded log window is treated
//! as a conflict (conservative, never unsound). `begin` reads the log
//! sequence **before** pinning the snapshot, so a commit racing the pin is
//! validated against — the race can only produce a spurious conflict,
//! never a missed one.
//!
//! Key derivation ([`keys`]) is written once, for autocommit recording
//! and transactions alike, and is deliberately coarse — the *directly
//! addressed* entities of each mutation (`add_edge` claims both endpoint
//! vertices; a property write claims its vertex/edge; `add_vertex` claims
//! nothing, fresh identities cannot conflict). Cascading effects (removing
//! a vertex implicitly removes its edges) are not expanded into keys, so
//! validation alone misses a transaction racing such a cascade. The commit
//! catches it instead: under the writer lock and before its first
//! mutation, it checks that every committed id its write set names (the
//! same ids [`keys`] derives) still exists, and fails with
//! [`GdbError::TxnConflict`] — nothing applied, nothing logged — when one
//! vanished.
//!
//! ## Reads-your-own-writes scope
//!
//! Inside the transaction, **point reads** (vertex/edge lookup, property
//! reads, endpoints, labels, counts, canonical resolution) observe the
//! buffered writes overlaid on the pinned base epoch; removing a base
//! vertex removes its base incident edges from that view too, as the
//! engine's cascade will at commit, so no later buffered write can name
//! one. Scans and traversals (`for_each_incident` —
//! and so `neighbors`, `vertex_edges` and every traversal built on it —
//! `vertex_degree`, `scan_vertices`, `degree_scan`, property-index lookups,
//! …) answer from the pinned base alone: the benchmark write mixes never
//! traverse their own uncommitted writes, and an honest overlay for
//! traversals would re-implement every engine's adjacency structure.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use gm_model::api::{
    Applied, Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, Mutation,
    SpaceReport, VertexData,
};
use gm_model::lockorder::{self, LockRank};
use gm_model::{Eid, GdbError, GdbResult, Props, QueryCtx, Value, Vid};

use crate::SnapshotSource;

/// High-bit tag marking vertex/edge ids handed out by an uncommitted
/// transaction for entities it created. Placeholders are resolved to the
/// engine's real ids during commit replay and never escape a committed
/// transaction. (Engines allocate real ids densely from zero and the
/// sharded composite multiplies by the shard count, so a real id with this
/// bit set would require ~9.2e18 live entities — far beyond bench scales.)
pub const TXN_ID_TAG: u64 = 1 << 63;

fn is_tagged(raw: u64) -> bool {
    raw & TXN_ID_TAG != 0
}

/// One entry of a transaction's write set: the directly addressed entity
/// of a buffered mutation, in the id space of the source the transaction
/// runs against (composite ids for a sharded source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnKey {
    /// A vertex id (raw `Vid`).
    Vertex(u64),
    /// An edge id (raw `Eid`).
    Edge(u64),
    /// The whole graph (autocommit `bulk_load`): conflicts with any
    /// non-empty write set.
    All,
}

impl TxnKey {
    fn describe(&self) -> String {
        match self {
            TxnKey::Vertex(id) => format!("vertex v{id}"),
            TxnKey::Edge(id) => format!("edge e{id}"),
            TxnKey::All => "the whole graph".into(),
        }
    }

    /// Names an entity that exists outside this transaction (not a
    /// placeholder for one it created).
    fn is_committed(&self) -> bool {
        match self {
            TxnKey::Vertex(id) | TxnKey::Edge(id) => !is_tagged(*id),
            TxnKey::All => true,
        }
    }

    /// Fail with [`GdbError::TxnConflict`] when the entity this key names
    /// is gone from `db`.
    fn require_present(&self, db: &dyn GraphSnapshot) -> GdbResult<()> {
        let found = match self {
            TxnKey::Vertex(id) => db.vertex_label(Vid(*id)).map(|l| l.is_some()),
            TxnKey::Edge(id) => db.edge_endpoints(Eid(*id)).map(|ends| ends.is_some()),
            TxnKey::All => Ok(true),
        };
        match found {
            Ok(true) => Ok(()),
            Ok(false) | Err(GdbError::VertexNotFound(_) | GdbError::EdgeNotFound(_)) => {
                Err(GdbError::TxnConflict(format!(
                    "{} was removed by a concurrent write after this txn began",
                    self.describe()
                )))
            }
            Err(e) => Err(e),
        }
    }
}

/// The [`TxnKey`]s a mutation directly addresses — the write-set keys of
/// the [module docs](self), derived once for [`KeyRecorder`] and
/// [`WriteTxn`] alike.
pub fn keys(m: &Mutation<'_>) -> impl Iterator<Item = TxnKey> {
    let (first, second) = match *m {
        Mutation::BulkLoad(..) => (Some(TxnKey::All), None),
        Mutation::AddEdge(src, dst, ..) => {
            (Some(TxnKey::Vertex(src.0)), Some(TxnKey::Vertex(dst.0)))
        }
        Mutation::SetVertexProperty(v, ..)
        | Mutation::RemoveVertex(v)
        | Mutation::RemoveVertexProperty(v, _) => (Some(TxnKey::Vertex(v.0)), None),
        Mutation::SetEdgeProperty(e, ..)
        | Mutation::RemoveEdge(e)
        | Mutation::RemoveEdgeProperty(e, _) => (Some(TxnKey::Edge(e.0)), None),
        // A fresh identity cannot conflict with any concurrent write set;
        // index builds are idempotent setup-path metadata and a journal
        // flush writes no data.
        Mutation::AddVertex(..) | Mutation::CreateVertexIndex(_) | Mutation::Sync => (None, None),
    };
    first.into_iter().chain(second)
}

/// Bound on how many recent commits a [`TxnLog`] retains.
pub const TXN_LOG_CAP_DEFAULT: usize = 1024;

struct TxnLogInner {
    /// Monotone sequence number of the newest key-carrying commit.
    commit_seq: u64,
    /// Sequence number of the newest entry evicted by the cap (0 = none).
    /// A transaction that began before this point cannot be validated
    /// exactly and conflicts conservatively.
    trimmed: u64,
    /// Recent commits, oldest first: `(seq, write-set keys)`.
    recent: VecDeque<(u64, Vec<TxnKey>)>,
}

/// Bounded commit log powering first-committer-wins validation (see the
/// [module docs](self)).
pub struct TxnLog {
    inner: Mutex<TxnLogInner>,
    cap: usize,
}

impl Default for TxnLog {
    fn default() -> Self {
        TxnLog::new()
    }
}

impl TxnLog {
    /// A log with the [`TXN_LOG_CAP_DEFAULT`] retention bound.
    pub fn new() -> TxnLog {
        TxnLog::with_cap(TXN_LOG_CAP_DEFAULT)
    }

    /// A log retaining at most `cap` recent commits.
    pub fn with_cap(cap: usize) -> TxnLog {
        TxnLog {
            inner: Mutex::new(TxnLogInner {
                commit_seq: 0,
                trimmed: 0,
                recent: VecDeque::new(),
            }),
            cap: cap.max(1),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, TxnLogInner> {
        // gm-lock: leaf
        let _t = lockorder::acquire(LockRank::Leaf, "gm-mvcc/txn.rs txn log");
        // Bookkeeping-only state: recover a poisoned guard rather than
        // letting one panicking writer take down every later commit.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sequence number of the newest recorded commit. A transaction pins
    /// this **before** pinning its snapshot.
    pub fn seq(&self) -> u64 {
        self.locked().commit_seq
    }

    /// Record a committed write set. Key-less writes are not recorded —
    /// they cannot conflict with anything, so spending log retention (and a
    /// sequence bump) on them would only evict entries validation needs.
    pub fn append(&self, keys: Vec<TxnKey>) {
        if keys.is_empty() {
            return;
        }
        let mut inner = self.locked();
        inner.commit_seq += 1;
        let seq = inner.commit_seq;
        inner.recent.push_back((seq, keys));
        while inner.recent.len() > self.cap {
            if let Some((evicted, _)) = inner.recent.pop_front() {
                inner.trimmed = evicted;
            }
        }
    }

    /// First-committer-wins check: fail with [`GdbError::TxnConflict`] if
    /// any commit recorded after `start_seq` intersects `keys`, or if
    /// commits from after `start_seq` have already been trimmed out of the
    /// retention window (conservative).
    pub fn validate(&self, start_seq: u64, keys: &[TxnKey]) -> GdbResult<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let inner = self.locked();
        if inner.trimmed > start_seq {
            return Err(GdbError::TxnConflict(format!(
                "commit log trimmed past txn start (seq {start_seq} < oldest retained {}): \
                 cannot prove the write set untouched",
                inner.trimmed + 1
            )));
        }
        let mine = TxnKey::All;
        let has_all = keys.contains(&mine);
        for (seq, committed) in &inner.recent {
            if *seq <= start_seq {
                continue;
            }
            let hit = committed
                .iter()
                .find(|k| **k == TxnKey::All || has_all || keys.binary_search(k).is_ok());
            if let Some(k) = hit {
                return Err(GdbError::TxnConflict(format!(
                    "{} was written by commit {seq} after this txn began at seq {start_seq}",
                    k.describe()
                )));
            }
        }
        Ok(())
    }
}

// ----- KeyRecorder ----------------------------------------------------------

/// A [`GraphDb`] proxy that derives the [`TxnKey`]s each mutation touches.
/// Every source's `with_write` wraps the live engine in one, so autocommit
/// writes feed the same [`TxnLog`] transaction validation reads from.
pub struct KeyRecorder<'a> {
    inner: &'a mut dyn GraphDb,
    keys: Vec<TxnKey>,
}

impl<'a> KeyRecorder<'a> {
    /// Wrap an engine for one write batch.
    pub fn new(inner: &'a mut dyn GraphDb) -> KeyRecorder<'a> {
        KeyRecorder {
            inner,
            keys: Vec::new(),
        }
    }

    /// Drain the recorded keys (for the source to append on success).
    pub fn take_keys(&mut self) -> Vec<TxnKey> {
        std::mem::take(&mut self.keys)
    }
}

impl GraphSnapshot for KeyRecorder<'_> {
    gm_model::forward_graph_snapshot!(target = |s| (*s.inner));
}

impl GraphDb for KeyRecorder<'_> {
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
        let touched = keys(&m);
        let out = self.inner.apply(m)?;
        self.keys.extend(touched);
        Ok(out)
    }
}

// ----- WriteTxn -------------------------------------------------------------

/// An epoch-pinned write transaction (see the [module docs](self)).
///
/// Owns its pinned base snapshot, so it carries no borrow of the source:
/// [`WriteTxn::begin`] takes the source, and [`WriteTxn::commit`] must be
/// handed the **same** source again (committing against a different source
/// validates against the wrong log and is a caller bug).
///
/// The transaction is itself a [`GraphDb`]: mutations buffer into the
/// write set, point reads overlay the buffer on the pinned base.
pub struct WriteTxn {
    start_seq: u64,
    base_epoch: u64,
    base: Box<dyn GraphSnapshot>,
    /// The base engine's [`EngineFeatures::max_identifier_len`], checked as
    /// each write is buffered.
    max_identifier_len: Option<u32>,
    /// The write set, replayed in order at commit. Ids may be
    /// [`TXN_ID_TAG`]-tagged placeholders for entities this transaction
    /// created; placeholders are handed out in creation order.
    ops: Vec<Mutation<'static>>,
    /// [`keys`] of the write set, placeholders skipped.
    keys: BTreeSet<TxnKey>,
    next_tag: u64,
    /// Entities created in-txn, keyed by placeholder id. Only live ones:
    /// an in-txn removal deletes the entry.
    created_v: BTreeMap<u64, (String, Props)>,
    created_e: BTreeMap<u64, (Vid, Vid, String, Props)>,
    /// Base entities removed in-txn.
    removed_v: BTreeSet<u64>,
    removed_e: BTreeSet<u64>,
    /// Property overrides (`None` = removed), keyed by raw id + name.
    vprops: BTreeMap<(u64, String), Option<Value>>,
    eprops: BTreeMap<(u64, String), Option<Value>>,
}

impl WriteTxn {
    /// Pin the current epoch and open an empty transaction against it.
    ///
    /// The log sequence is read **before** the snapshot is pinned: a commit
    /// racing the pin lands with `seq > start_seq` and is validated
    /// against, so the race can only manufacture a spurious conflict,
    /// never hide a real one.
    pub fn begin(source: &dyn SnapshotSource) -> GdbResult<WriteTxn> {
        let start_seq = source.txn_log().map(|l| l.seq()).unwrap_or(0);
        let base = source.snapshot()?;
        let base_epoch = base.epoch();
        Ok(WriteTxn {
            start_seq,
            base_epoch,
            max_identifier_len: base.features().max_identifier_len,
            base,
            ops: Vec::new(),
            keys: BTreeSet::new(),
            next_tag: 0,
            created_v: BTreeMap::new(),
            created_e: BTreeMap::new(),
            removed_v: BTreeSet::new(),
            removed_e: BTreeSet::new(),
            vprops: BTreeMap::new(),
            eprops: BTreeMap::new(),
        })
    }

    /// Epoch of the pinned base view.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Buffered mutations so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Validate and publish the write set atomically against `source` (the
    /// same source `begin` pinned). Returns the number of ops applied; a
    /// [`GdbError::TxnConflict`] means nothing was applied and the caller
    /// may retry on a fresh transaction.
    pub fn commit(self, source: &dyn SnapshotSource) -> GdbResult<u64> {
        if self.ops.is_empty() {
            return Ok(0);
        }
        let keys: Vec<TxnKey> = self.keys.iter().copied().collect();
        let mut ops = Some(self.ops);
        source.txn_commit(self.start_seq, &keys, &mut |db| {
            let ops = ops
                .take()
                .ok_or_else(|| GdbError::Invalid("transaction replay closure re-entered".into()))?;
            // Validation compares keys, which miss a concurrent cascade (a
            // vertex removal keys the vertex, not its edges): check that
            // every committed id still exists before the first mutation.
            for k in &keys {
                k.require_present(&*db)?;
            }
            replay(db, ops)
        })
    }

    /// Discard the write set. Returns how many buffered ops were dropped.
    pub fn abort(self) -> u64 {
        self.ops.len() as u64
    }

    fn fresh_tag(&mut self) -> u64 {
        let tag = TXN_ID_TAG | self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// The RYOW view's answer to "does this vertex exist?", as an error.
    fn require_vertex(&self, v: Vid) -> GdbResult<()> {
        let seen = if is_tagged(v.0) {
            self.created_v.contains_key(&v.0)
        } else {
            !self.removed_v.contains(&v.0) && self.base.vertex(v)?.is_some()
        };
        if seen {
            Ok(())
        } else {
            Err(GdbError::VertexNotFound(v.0))
        }
    }

    /// The RYOW view's answer to "does this edge exist?", as an error.
    fn require_edge(&self, e: Eid) -> GdbResult<()> {
        let seen = if is_tagged(e.0) {
            self.created_e.contains_key(&e.0)
        } else {
            !self.removed_e.contains(&e.0) && self.base.edge(e)?.is_some()
        };
        if seen {
            Ok(())
        } else {
            Err(GdbError::EdgeNotFound(e.0))
        }
    }

    /// Take vertex `v` out of the RYOW view with everything the engine's
    /// cascade will take at commit: its edges, base and created, and all
    /// their properties.
    fn drop_vertex(&mut self, v: Vid) -> GdbResult<()> {
        let mut dead_edges = Vec::new();
        if is_tagged(v.0) {
            self.created_v.remove(&v.0);
        } else {
            self.removed_v.insert(v.0);
            let ctx = QueryCtx::unbounded();
            for r in self.base.vertex_edges(v, Direction::Both, None, &ctx)? {
                self.removed_e.insert(r.eid.0);
                dead_edges.push(r.eid.0);
            }
        }
        self.created_e.retain(|id, (src, dst, _, _)| {
            let live = src.0 != v.0 && dst.0 != v.0;
            if !live {
                dead_edges.push(*id);
            }
            live
        });
        self.eprops.retain(|(id, _), _| !dead_edges.contains(id));
        self.vprops.retain(|(id, _), _| *id != v.0);
        Ok(())
    }

    /// Apply this txn's property overrides for entity `id` to `props`.
    fn overlay_props(
        props: &mut Props,
        overrides: &BTreeMap<(u64, String), Option<Value>>,
        id: u64,
    ) {
        for ((oid, name), val) in overrides {
            if *oid != id {
                continue;
            }
            props.retain(|(n, _)| n != name);
            if let Some(v) = val {
                props.push((name.clone(), v.clone()));
            }
        }
    }
}

/// Replay a write set: placeholder ids are bound, in creation order, to
/// the ids the engine answers.
fn replay(db: &mut dyn GraphDb, ops: Vec<Mutation<'static>>) -> GdbResult<u64> {
    let n_ops = ops.len() as u64;
    let mut bound: BTreeMap<u64, u64> = BTreeMap::new();
    let real = |bound: &BTreeMap<u64, u64>, id: u64| -> GdbResult<u64> {
        if !is_tagged(id) {
            return Ok(id);
        }
        bound
            .get(&id)
            .copied()
            .ok_or_else(|| GdbError::Invalid(format!("unresolved txn placeholder {id:#x}")))
    };
    for m in ops {
        let creates = matches!(m, Mutation::AddVertex(..) | Mutation::AddEdge(..));
        let v = |v: Vid| real(&bound, v.0).map(Vid);
        let e = |e: Eid| real(&bound, e.0).map(Eid);
        let m = match m {
            Mutation::AddEdge(src, dst, label, props) => {
                Mutation::AddEdge(v(src)?, v(dst)?, label, props)
            }
            Mutation::SetVertexProperty(x, name, value) => {
                Mutation::SetVertexProperty(v(x)?, name, value)
            }
            Mutation::SetEdgeProperty(x, name, value) => {
                Mutation::SetEdgeProperty(e(x)?, name, value)
            }
            Mutation::RemoveVertex(x) => Mutation::RemoveVertex(v(x)?),
            Mutation::RemoveEdge(x) => Mutation::RemoveEdge(e(x)?),
            Mutation::RemoveVertexProperty(x, name) => Mutation::RemoveVertexProperty(v(x)?, name),
            Mutation::RemoveEdgeProperty(x, name) => Mutation::RemoveEdgeProperty(e(x)?, name),
            other => other,
        };
        let out = db.apply(m)?;
        if creates {
            let tag = TXN_ID_TAG | bound.len() as u64;
            bound.insert(tag, out.id()?);
        }
    }
    Ok(n_ops)
}

impl GraphSnapshot for WriteTxn {
    fn name(&self) -> String {
        self.base.name()
    }

    fn features(&self) -> EngineFeatures {
        self.base.features()
    }

    fn epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The base view's answer, less what this transaction removed — its
    /// vertex removals' cascaded base edges included.
    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        let v = self.base.resolve_vertex(canonical)?;
        (!self.removed_v.contains(&v.0)).then_some(v)
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        let e = self.base.resolve_edge(canonical)?;
        (!self.removed_e.contains(&e.0)).then_some(e)
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let base = self.base.vertex_count(ctx)?;
        Ok(base + self.created_v.len() as u64 - self.removed_v.len() as u64)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let base = self.base.edge_count(ctx)?;
        Ok(base + self.created_e.len() as u64 - self.removed_e.len() as u64)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.base.edge_label_set(ctx)
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.base.vertices_with_property(name, value, ctx)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        self.base.edges_with_property(name, value, ctx)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.base.edges_with_label(label, ctx)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        if is_tagged(v.0) {
            return Ok(self.created_v.get(&v.0).map(|(label, props)| {
                let mut props = props.clone();
                Self::overlay_props(&mut props, &self.vprops, v.0);
                VertexData {
                    id: v,
                    label: label.clone(),
                    props,
                }
            }));
        }
        if self.removed_v.contains(&v.0) {
            return Ok(None);
        }
        let mut data = match self.base.vertex(v)? {
            Some(d) => d,
            None => return Ok(None),
        };
        Self::overlay_props(&mut data.props, &self.vprops, v.0);
        Ok(Some(data))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        if is_tagged(e.0) {
            return Ok(self.created_e.get(&e.0).map(|(src, dst, label, props)| {
                let mut props = props.clone();
                Self::overlay_props(&mut props, &self.eprops, e.0);
                EdgeData {
                    id: e,
                    src: *src,
                    dst: *dst,
                    label: label.clone(),
                    props,
                }
            }));
        }
        if self.removed_e.contains(&e.0) {
            return Ok(None);
        }
        let mut data = match self.base.edge(e)? {
            Some(d) => d,
            None => return Ok(None),
        };
        Self::overlay_props(&mut data.props, &self.eprops, e.0);
        Ok(Some(data))
    }

    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.base.for_each_incident(v, dir, label, ctx, f)
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.base.vertex_degree(v, dir, ctx)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.base.vertex_edge_labels(v, dir, ctx)
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        self.base.scan_vertices(ctx)
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        self.base.scan_edges(ctx)
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        if let Some(over) = self.vprops.get(&(v.0, name.to_string())) {
            return Ok(over.clone());
        }
        if is_tagged(v.0) {
            return Ok(self.created_v.get(&v.0).and_then(|(_, props)| {
                props
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, val)| val.clone())
            }));
        }
        if self.removed_v.contains(&v.0) {
            return Ok(None);
        }
        self.base.vertex_property(v, name)
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        if let Some(over) = self.eprops.get(&(e.0, name.to_string())) {
            return Ok(over.clone());
        }
        if is_tagged(e.0) {
            return Ok(self.created_e.get(&e.0).and_then(|(_, _, _, props)| {
                props
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, val)| val.clone())
            }));
        }
        if self.removed_e.contains(&e.0) {
            return Ok(None);
        }
        self.base.edge_property(e, name)
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        if is_tagged(e.0) {
            return Ok(self
                .created_e
                .get(&e.0)
                .map(|(src, dst, _, _)| (*src, *dst)));
        }
        if self.removed_e.contains(&e.0) {
            return Ok(None);
        }
        self.base.edge_endpoints(e)
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        if is_tagged(e.0) {
            return Ok(self
                .created_e
                .get(&e.0)
                .map(|(_, _, label, _)| label.clone()));
        }
        if self.removed_e.contains(&e.0) {
            return Ok(None);
        }
        self.base.edge_label(e)
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if is_tagged(v.0) {
            return Ok(self.created_v.get(&v.0).map(|(label, _)| label.clone()));
        }
        if self.removed_v.contains(&v.0) {
            return Ok(None);
        }
        self.base.vertex_label(v)
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.base.degree_scan(dir, k, ctx)
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.base.distinct_neighbor_scan(dir, ctx)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.base.has_vertex_index(prop)
    }

    fn space(&self) -> SpaceReport {
        self.base.space()
    }
}

impl GraphDb for WriteTxn {
    /// Buffer `m` into the write set and overlay it on the RYOW view. A
    /// name longer than the engine's identifier limit is refused here, as
    /// autocommit refuses it, so a commit never fails half-replayed on it.
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
        m.check_identifiers(self.max_identifier_len)?;
        let out = match &m {
            Mutation::BulkLoad(..) | Mutation::CreateVertexIndex(_) => {
                return Err(GdbError::Unsupported(
                    "bulk load and index builds inside a write transaction".into(),
                ))
            }
            // Nothing durable exists until commit.
            Mutation::Sync => return Ok(Applied::Done),
            Mutation::AddVertex(label, props) => {
                let tag = self.fresh_tag();
                self.created_v
                    .insert(tag, (label.to_string(), props.to_vec()));
                Applied::Id(tag)
            }
            Mutation::AddEdge(src, dst, label, props) => {
                self.require_vertex(*src)?;
                self.require_vertex(*dst)?;
                let tag = self.fresh_tag();
                self.created_e
                    .insert(tag, (*src, *dst, label.to_string(), props.to_vec()));
                Applied::Id(tag)
            }
            Mutation::SetVertexProperty(v, name, value) => {
                self.require_vertex(*v)?;
                self.vprops
                    .insert((v.0, name.to_string()), Some(value.clone()));
                Applied::Done
            }
            Mutation::SetEdgeProperty(e, name, value) => {
                self.require_edge(*e)?;
                self.eprops
                    .insert((e.0, name.to_string()), Some(value.clone()));
                Applied::Done
            }
            Mutation::RemoveVertex(v) => {
                self.require_vertex(*v)?;
                self.drop_vertex(*v)?;
                Applied::Done
            }
            Mutation::RemoveEdge(e) => {
                self.require_edge(*e)?;
                if is_tagged(e.0) {
                    self.created_e.remove(&e.0);
                } else {
                    self.removed_e.insert(e.0);
                }
                self.eprops.retain(|(id, _), _| *id != e.0);
                Applied::Done
            }
            Mutation::RemoveVertexProperty(v, name) => {
                self.require_vertex(*v)?;
                let prior = self.vertex_property(*v, name)?;
                self.vprops.insert((v.0, name.to_string()), None);
                Applied::Value(prior)
            }
            Mutation::RemoveEdgeProperty(e, name) => {
                self.require_edge(*e)?;
                let prior = self.edge_property(*e, name)?;
                self.eprops.insert((e.0, name.to_string()), None);
                Applied::Value(prior)
            }
        };
        self.keys.extend(keys(&m).filter(TxnKey::is_committed));
        self.ops.push(m.into_owned());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CowCell;
    use engine_linked::LinkedGraph;
    use gm_model::api::LoadOptions;
    use gm_model::testkit;

    fn loaded_cell(n: u64) -> CowCell<LinkedGraph> {
        let cell = CowCell::new(LinkedGraph::v1());
        let data = testkit::chain_dataset(n);
        cell.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        cell
    }

    #[test]
    fn txn_buffers_and_commit_publishes_atomically() {
        let cell = loaded_cell(10);
        let ctx = QueryCtx::unbounded();
        let mut txn = WriteTxn::begin(&cell).unwrap();
        let v = txn.add_vertex("txn", &vec![]).unwrap();
        assert!(is_tagged(v.0), "in-txn id must be a placeholder");
        let a = txn.resolve_vertex(0).unwrap();
        txn.add_edge(v, a, "spoke", &vec![]).unwrap();
        // RYOW: the txn sees its own writes …
        assert_eq!(txn.vertex_count(&ctx).unwrap(), 11);
        assert_eq!(txn.vertex(v).unwrap().unwrap().label, "txn");
        // … but no concurrent pin does.
        assert_eq!(cell.snapshot().unwrap().vertex_count(&ctx).unwrap(), 10);
        let applied = txn.commit(&cell).unwrap();
        assert_eq!(applied, 2);
        let snap = cell.snapshot().unwrap();
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 11);
        assert_eq!(snap.edge_count(&ctx).unwrap(), 10);
    }

    #[test]
    fn first_committer_wins_between_txns() {
        let cell = loaded_cell(10);
        let target = cell.snapshot().unwrap().resolve_vertex(3).unwrap();
        let mut t1 = WriteTxn::begin(&cell).unwrap();
        let mut t2 = WriteTxn::begin(&cell).unwrap();
        t1.set_vertex_property(target, "w", Value::Int(1)).unwrap();
        t2.set_vertex_property(target, "w", Value::Int(2)).unwrap();
        t1.commit(&cell).unwrap();
        match t2.commit(&cell) {
            Err(GdbError::TxnConflict(why)) => assert!(why.contains("vertex"), "{why}"),
            other => panic!("second committer must conflict, got {other:?}"),
        }
        // First committer's write survived, unmerged.
        let snap = cell.snapshot().unwrap();
        assert_eq!(
            snap.vertex_property(target, "w").unwrap(),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn autocommit_write_conflicts_with_open_txn() {
        let cell = loaded_cell(10);
        let target = cell.snapshot().unwrap().resolve_vertex(5).unwrap();
        let mut txn = WriteTxn::begin(&cell).unwrap();
        txn.set_vertex_property(target, "w", Value::Int(1)).unwrap();
        // An autocommit write to the same vertex lands after the pin.
        cell.with_write(&mut |db| {
            db.set_vertex_property(target, "w", Value::Int(9))?;
            Ok(1)
        })
        .unwrap();
        assert!(matches!(txn.commit(&cell), Err(GdbError::TxnConflict(_))));
    }

    #[test]
    fn disjoint_txns_both_commit() {
        let cell = loaded_cell(10);
        let snap = cell.snapshot().unwrap();
        let va = snap.resolve_vertex(1).unwrap();
        let vb = snap.resolve_vertex(8).unwrap();
        let mut t1 = WriteTxn::begin(&cell).unwrap();
        let mut t2 = WriteTxn::begin(&cell).unwrap();
        t1.set_vertex_property(va, "w", Value::Int(1)).unwrap();
        t2.set_vertex_property(vb, "w", Value::Int(2)).unwrap();
        t1.commit(&cell).unwrap();
        t2.commit(&cell).unwrap();
        let end = cell.snapshot().unwrap();
        assert_eq!(end.vertex_property(va, "w").unwrap(), Some(Value::Int(1)));
        assert_eq!(end.vertex_property(vb, "w").unwrap(), Some(Value::Int(2)));
    }

    #[test]
    fn abort_discards_the_write_set() {
        let cell = loaded_cell(5);
        let ctx = QueryCtx::unbounded();
        let mut txn = WriteTxn::begin(&cell).unwrap();
        txn.add_vertex("gone", &vec![]).unwrap();
        assert_eq!(txn.abort(), 1);
        assert_eq!(cell.snapshot().unwrap().vertex_count(&ctx).unwrap(), 5);
    }

    #[test]
    fn empty_txn_commits_as_noop() {
        let cell = loaded_cell(5);
        drop(cell.snapshot().unwrap()); // settle the post-load publish
        let before = cell.current_epoch();
        let txn = WriteTxn::begin(&cell).unwrap();
        assert_eq!(txn.commit(&cell).unwrap(), 0);
        assert_eq!(
            cell.current_epoch(),
            before,
            "no-op commit publishes nothing"
        );
    }

    #[test]
    fn ryow_overlay_point_reads() {
        let cell = loaded_cell(10);
        let snap = cell.snapshot().unwrap();
        let v3 = snap.resolve_vertex(3).unwrap();
        let mut txn = WriteTxn::begin(&cell).unwrap();
        txn.set_vertex_property(v3, "color", Value::Str("red".into()))
            .unwrap();
        assert_eq!(
            txn.vertex_property(v3, "color").unwrap(),
            Some(Value::Str("red".into()))
        );
        txn.remove_vertex_property(v3, "color").unwrap();
        assert_eq!(txn.vertex_property(v3, "color").unwrap(), None);
        // Remove a base vertex: invisible in the txn, present outside.
        let v7 = snap.resolve_vertex(7).unwrap();
        txn.remove_vertex(v7).unwrap();
        assert!(txn.vertex(v7).unwrap().is_none());
        assert!(txn.require_vertex(v7).is_err());
        assert!(cell.snapshot().unwrap().vertex(v7).unwrap().is_some());
        // In-txn create-then-remove leaves no trace.
        let tmp = txn.add_vertex("tmp", &vec![]).unwrap();
        txn.remove_vertex(tmp).unwrap();
        assert!(txn.vertex(tmp).unwrap().is_none());
    }

    #[test]
    fn trimmed_log_window_conflicts_conservatively() {
        let log = TxnLog::with_cap(2);
        let start = log.seq();
        log.append(vec![TxnKey::Vertex(1)]);
        log.append(vec![TxnKey::Vertex(2)]);
        log.append(vec![TxnKey::Vertex(3)]); // evicts seq 1
        match log.validate(start, &[TxnKey::Vertex(99)]) {
            Err(GdbError::TxnConflict(why)) => assert!(why.contains("trimmed"), "{why}"),
            other => panic!("trimmed window must conflict conservatively, got {other:?}"),
        }
        // A txn that began after the trimmed range validates exactly.
        log.validate(log.seq(), &[TxnKey::Vertex(99)]).unwrap();
    }

    #[test]
    fn keyless_writes_do_not_advance_the_log() {
        let log = TxnLog::new();
        log.append(vec![]);
        assert_eq!(log.seq(), 0);
        log.append(vec![TxnKey::Edge(4)]);
        assert_eq!(log.seq(), 1);
    }

    #[test]
    fn bulk_load_conflicts_with_everything() {
        let log = TxnLog::new();
        let start = log.seq();
        log.append(vec![TxnKey::All]);
        assert!(matches!(
            log.validate(start, &[TxnKey::Vertex(0)]),
            Err(GdbError::TxnConflict(_))
        ));
    }

    #[test]
    fn structural_ops_rejected_inside_txn() {
        let cell = loaded_cell(5);
        let mut txn = WriteTxn::begin(&cell).unwrap();
        assert!(matches!(
            txn.bulk_load(&testkit::chain_dataset(2), &LoadOptions::default()),
            Err(GdbError::Unsupported(_))
        ));
        assert!(matches!(
            txn.create_vertex_index("p"),
            Err(GdbError::Unsupported(_))
        ));
    }
}
