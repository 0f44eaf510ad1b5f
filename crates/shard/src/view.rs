//! The composite read path: route single-vertex questions, scatter-gather
//! the rest — written once.
//!
//! All read logic lives in `Parts`, a borrowed bundle of the shard views
//! an op needs plus the routing [`Meta`]. Every composite — the locked
//! `ShardedGraph`, a pinned [`ShardedView`], and the
//! [`Router`] that serves writer handles, staged
//! commits and fleet sessions — is a **host**: it implements the one-method
//! seam `PartsHost::with_parts` ("run `f` against a `Parts` holding the
//! shards this op needs", the need being a [`ShardSel`]) and expands
//! `composite_graph_snapshot!`, which derives the whole `GraphSnapshot`
//! surface from that seam.
//!
//! Routing rules (see `route` for why they are exhaustive):
//!
//! * point reads (`vertex`, property and label lookups) touch one shard by
//!   id arithmetic alone — no routing meta;
//! * `out()`-direction work touches only the vertex's owner shard — all
//!   out-edges are stored there;
//! * `in()`/`both()` gather over the vertex's **presence set**: its owner
//!   plus every shard holding a ghost of it — precisely the shards that
//!   can store edges pointing at it;
//! * whole-graph scans and counts visit every shard, filtering ghosts;
//! * edge questions route by the shard digit of the composite edge id.

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, SpaceReport, VertexData,
};
use gm_model::{Eid, GdbResult, QueryCtx, Value, Vid};

use crate::graph::ShardedGraph;
use crate::route::{decode_eid, decode_vid, encode_eid, Meta};
use crate::router::{Router, ShardPort};

/// Which shards (and whether the routing meta) a read needs — what a host
/// must acquire before running it.
#[derive(Debug, Clone, Copy)]
pub enum ShardSel {
    /// The routing maps alone (canonical resolution): no shard.
    Meta,
    /// One shard, addressed by id arithmetic alone — no routing meta.
    Point(usize),
    /// One shard, plus the meta to translate the ids it returns.
    One(usize),
    /// The presence set of a vertex: its owner plus every ghosting shard.
    Presence(Vid),
    /// Every shard.
    All,
}

impl ShardSel {
    fn point(id: u64, n: usize) -> ShardSel {
        ShardSel::Point((id % n as u64) as usize)
    }

    fn one(id: u64, n: usize) -> ShardSel {
        ShardSel::One((id % n as u64) as usize)
    }

    /// Adjacency of `v`: all out-edges live on the owner; in-edges live on
    /// their sources' shards, so `In`/`Both` gather over the presence set.
    fn around(v: Vid, dir: Direction, n: usize) -> ShardSel {
        match dir {
            Direction::Out => ShardSel::one(v.0, n),
            Direction::In | Direction::Both => ShardSel::Presence(v),
        }
    }

    /// The one shard a single-shard selection names.
    pub fn single(&self) -> Option<usize> {
        match self {
            ShardSel::Point(s) | ShardSel::One(s) => Some(*s),
            _ => None,
        }
    }

    /// The shards this selection names out of `n`, ascending (the order
    /// multi-shard lock acquisition must follow).
    pub fn shards<'a>(
        &'a self,
        n: usize,
        meta: Option<&'a Meta>,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..n).filter(move |&s| match self {
            ShardSel::Meta => false,
            ShardSel::Point(x) | ShardSel::One(x) => *x == s,
            ShardSel::Presence(v) => meta.is_some_and(|m| m.local_on(s, *v).is_some()),
            ShardSel::All => true,
        })
    }
}

/// The host seam of the composite read surface. See the module docs.
pub(crate) trait PartsHost {
    /// Composite display name.
    fn host_name(&self) -> &str;

    /// Shard count (for the id arithmetic that picks an op's [`ShardSel`]).
    fn host_shards(&self) -> usize;

    /// The epoch reads through this host observe (0 = unversioned).
    fn host_epoch(&self) -> u64;

    /// Run `f` against a [`Parts`] holding what `need` names.
    fn with_parts<R>(&self, need: ShardSel, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R>;
}

/// One `GdbResult`-returning primitive per row: its arguments, its answer
/// type, and the shards it needs.
macro_rules! routed_reads {
    ($(fn $m:ident(&$s:ident $(, $a:ident: $t:ty)*) -> $r:ty = $need:expr;)*) => {$(
        fn $m(&$s $(, $a: $t)*) -> GdbResult<$r> {
            $s.with_parts($need, |p| p.$m($($a),*))?
        }
    )*};
}

/// The whole `GraphSnapshot` surface of a [`PartsHost`] — complete by
/// construction, bulk-scan overrides and `epoch` included (the `gm-check`
/// delegation lint treats an impl expanding it as fully overriding).
/// Multi-shard primitives run under a single acquisition of their shard
/// set, never re-acquiring per vertex as the trait defaults would.
macro_rules! composite_graph_snapshot {
    () => {
        fn name(&self) -> String {
            self.host_name().to_string()
        }

        fn epoch(&self) -> u64 {
            self.host_epoch()
        }

        fn features(&self) -> EngineFeatures {
            self.with_parts(ShardSel::Point(0), |p| p.features())
                .unwrap_or_else(|e| EngineFeatures {
                    name: self.host_name().to_string(),
                    system_type: "Sharded composite".into(),
                    storage: format!("unavailable ({e})"),
                    edge_traversal: "scatter-gather".into(),
                    optimized_adapter: false,
                    async_writes: false,
                    attribute_indexes: false,
                    max_identifier_len: None,
                })
        }

        fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
            self.with_parts(ShardSel::Meta, |p| p.resolve_vertex(canonical))
                .ok()?
        }

        fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
            self.with_parts(ShardSel::Meta, |p| p.resolve_edge(canonical))
                .ok()?
        }

        // Scans materialize under the host's guards and release them
        // before iteration — the same shape as the remote client's scan.
        fn scan_vertices<'a>(
            &'a self,
            ctx: &'a QueryCtx,
        ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
            let items = self.with_parts(ShardSel::All, |p| p.scan_vertices(ctx))??;
            Ok(Box::new(items.into_iter()))
        }

        fn scan_edges<'a>(
            &'a self,
            ctx: &'a QueryCtx,
        ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
            let items = self.with_parts(ShardSel::All, |p| p.scan_edges(ctx))??;
            Ok(Box::new(items.into_iter()))
        }

        fn has_vertex_index(&self, prop: &str) -> bool {
            self.with_parts(ShardSel::All, |p| p.has_vertex_index(prop))
                .unwrap_or(false)
        }

        fn space(&self) -> SpaceReport {
            self.with_parts(ShardSel::All, |p| p.space())
                .unwrap_or_default()
        }

        routed_reads! {
            fn vertex_count(&self, ctx: &QueryCtx) -> u64 = ShardSel::All;
            fn edge_count(&self, ctx: &QueryCtx) -> u64 = ShardSel::All;
            fn edge_label_set(&self, ctx: &QueryCtx) -> Vec<String> = ShardSel::All;
            fn vertices_with_property(&self, name: &str, value: &Value, ctx: &QueryCtx) -> Vec<Vid>
                = ShardSel::All;
            fn edges_with_property(&self, name: &str, value: &Value, ctx: &QueryCtx) -> Vec<Eid>
                = ShardSel::All;
            fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> Vec<Eid> = ShardSel::All;
            fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> Vec<Vid>
                = ShardSel::All;
            fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> Vec<Vid>
                = ShardSel::All;
            fn vertex(&self, v: Vid) -> Option<VertexData>
                = ShardSel::point(v.0, self.host_shards());
            fn vertex_property(&self, v: Vid, name: &str) -> Option<Value>
                = ShardSel::point(v.0, self.host_shards());
            fn vertex_label(&self, v: Vid) -> Option<String>
                = ShardSel::point(v.0, self.host_shards());
            fn edge_property(&self, e: Eid, name: &str) -> Option<Value>
                = ShardSel::point(e.0, self.host_shards());
            fn edge_label(&self, e: Eid) -> Option<String>
                = ShardSel::point(e.0, self.host_shards());
            fn edge(&self, e: Eid) -> Option<EdgeData> = ShardSel::one(e.0, self.host_shards());
            fn edge_endpoints(&self, e: Eid) -> Option<(Vid, Vid)>
                = ShardSel::one(e.0, self.host_shards());
            fn for_each_incident(&self, v: Vid, dir: Direction, label: Option<&str>, ctx: &QueryCtx,
                f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>) -> ()
                = ShardSel::around(v, dir, self.host_shards());
            fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> u64
                = ShardSel::around(v, dir, self.host_shards());
            fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> Vec<String>
                = ShardSel::around(v, dir, self.host_shards());
        }
    };
}

impl<E: GraphDb + 'static> GraphSnapshot for ShardedGraph<E> {
    composite_graph_snapshot!();
}

impl GraphSnapshot for ShardedView {
    composite_graph_snapshot!();
}

impl<P: ShardPort> GraphSnapshot for Router<'_, P> {
    composite_graph_snapshot!();
}

/// Borrowed composite read state: the read views an op acquired plus the
/// routing meta consistent with them.
///
/// `shards` holds `(shard, view)` pairs for exactly the shards the op's
/// [`ShardSel`] named (hosts acquire only what an op needs — point reads
/// touch one shard, presence gathers a few, whole-graph scans all), and
/// `meta` is `None` for a meta-free point read. Reaching for a shard or a
/// meta the host did not acquire is an internal routing bug and panics.
pub(crate) struct Parts<'a> {
    pub(crate) name: &'a str,
    /// Shard count of the composite (not of `shards`).
    pub(crate) n: usize,
    pub(crate) shards: &'a [(usize, &'a dyn GraphSnapshot)],
    pub(crate) meta: Option<&'a Meta>,
}

impl Parts<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn shard(&self, s: usize) -> &dyn GraphSnapshot {
        self.shards
            .iter()
            .find(|(i, _)| *i == s)
            .expect("routing bug: shard view not acquired for this op")
            .1
    }

    fn meta(&self) -> &Meta {
        self.meta
            .expect("routing bug: routing meta not acquired for this op")
    }

    pub fn features(&self) -> EngineFeatures {
        let mut f = self.shard(0).features();
        f.name = self.name.to_string();
        f.storage = format!(
            "{} × {} hash-partitioned shards (cut edges ghosted at source)",
            f.storage,
            self.n()
        );
        f
    }

    pub fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.meta().resolution.vertex(canonical)
    }

    pub fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.meta().resolution.edge(canonical)
    }

    pub fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut total = 0u64;
        for s in 0..self.n() {
            total += self.shard(s).vertex_count(ctx)? - self.meta().ghost_count(s);
        }
        Ok(total)
    }

    pub fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut total = 0u64;
        for s in 0..self.n() {
            total += self.shard(s).edge_count(ctx)?;
        }
        Ok(total)
    }

    pub fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut labels = Vec::new();
        for s in 0..self.n() {
            labels.extend(self.shard(s).edge_label_set(ctx)?);
        }
        labels.sort_unstable();
        labels.dedup();
        Ok(labels)
    }

    pub fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        // Ghosts carry no properties, so they can never match; translation
        // through `to_composite` is still applied for uniformity.
        let mut out = Vec::new();
        for s in 0..self.n() {
            out.extend(
                self.shard(s)
                    .vertices_with_property(name, value, ctx)?
                    .into_iter()
                    .map(|v| self.meta().to_composite(s, v)),
            );
        }
        Ok(out)
    }

    pub fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        let mut out = Vec::new();
        for s in 0..self.n() {
            out.extend(
                self.shard(s)
                    .edges_with_property(name, value, ctx)?
                    .into_iter()
                    .map(|e| encode_eid(e, s, self.n())),
            );
        }
        Ok(out)
    }

    pub fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let mut out = Vec::new();
        for s in 0..self.n() {
            out.extend(
                self.shard(s)
                    .edges_with_label(label, ctx)?
                    .into_iter()
                    .map(|e| encode_eid(e, s, self.n())),
            );
        }
        Ok(out)
    }

    pub fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        let (local, owner) = decode_vid(v, self.n());
        Ok(self.shard(owner).vertex(local)?.map(|data| VertexData {
            id: v,
            label: data.label,
            props: data.props,
        }))
    }

    pub fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        let (local, s) = decode_eid(e, self.n());
        Ok(self.shard(s).edge(local)?.map(|data| EdgeData {
            id: e,
            src: self.meta().to_composite(s, data.src),
            dst: self.meta().to_composite(s, data.dst),
            label: data.label,
            props: data.props,
        }))
    }

    /// The shards holding `v`'s `dir` edges, with `v`'s local id on each:
    /// all out-edges live on the owner (their far ends may be ghosts);
    /// in-edges live on their sources' shards, so `In`/`Both` gather over
    /// the presence set. `Both` on the owner yields out + same-shard in; on
    /// ghost shards a ghost has only in-edges, so the union is exactly the
    /// unsharded answer, each edge contributing once.
    fn holders(&self, v: Vid, dir: Direction) -> impl Iterator<Item = (usize, Vid)> {
        let (owner, gathered) = match dir {
            Direction::Out => {
                let (local, owner) = decode_vid(v, self.n());
                (Some((owner, local)), None)
            }
            Direction::In | Direction::Both => (None, Some(self.meta().presence(v))),
        };
        owner.into_iter().chain(gathered.into_iter().flatten())
    }

    pub fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for (s, local) in self.holders(v, dir) {
            self.shard(s)
                .for_each_incident(local, dir, label, ctx, &mut |r| {
                    f(EdgeRef {
                        eid: encode_eid(r.eid, s, self.n()),
                        other: self.meta().to_composite(s, r.other),
                    })
                })?;
        }
        Ok(())
    }

    pub fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.holders(v, dir)
            .map(|(s, local)| self.shard(s).vertex_degree(local, dir, ctx))
            .sum()
    }

    pub fn vertex_edge_labels(
        &self,
        v: Vid,
        dir: Direction,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<String>> {
        let mut labels = Vec::new();
        for (s, local) in self.holders(v, dir) {
            labels.extend(self.shard(s).vertex_edge_labels(local, dir, ctx)?);
        }
        // Each shard dedupes locally; the cross-shard union must too.
        labels.sort_unstable();
        labels.dedup();
        Ok(labels)
    }

    /// Q28–Q30 over the composite: evaluate the degree filter against one
    /// consistent cross-shard state. Routing through `vertex_degree` keeps
    /// the ghost arithmetic (presence-set gather for `In`/`Both`) in one
    /// place; the point is that the whole filter runs under a single
    /// acquisition of the shard views rather than re-acquiring per vertex,
    /// which is what the trait's default decomposition would do.
    pub fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        let mut out = Vec::new();
        for v in self.scan_vertices(ctx)? {
            let v = v?;
            if self.vertex_degree(v, dir, ctx)? >= k {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Q31 over the composite: one-hop neighbor union, deduped across
    /// shards, against one consistent cross-shard state.
    pub fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        let mut sources = Vec::new();
        for v in self.scan_vertices(ctx)? {
            sources.push(v?);
        }
        let mut out = Vec::new();
        for v in sources {
            self.for_each_incident(v, dir, None, ctx, &mut |r| {
                out.push(r.other);
                Ok(())
            })?;
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Materialized vertex scan: ghosts filtered, ids composite. A mid-scan
    /// inner error (deadline) is preserved at its position.
    pub fn scan_vertices(&self, ctx: &QueryCtx) -> GdbResult<Vec<GdbResult<Vid>>> {
        let mut out = Vec::new();
        for s in 0..self.n() {
            for item in self.shard(s).scan_vertices(ctx)? {
                match item {
                    Ok(local) => {
                        if !self.meta().is_ghost(s, local) {
                            out.push(Ok(self.meta().to_composite(s, local)));
                        }
                    }
                    Err(e) => {
                        out.push(Err(e));
                        return Ok(out);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Materialized edge scan (every edge is stored on exactly one shard).
    pub fn scan_edges(&self, ctx: &QueryCtx) -> GdbResult<Vec<GdbResult<Eid>>> {
        let mut out = Vec::new();
        for s in 0..self.n() {
            for item in self.shard(s).scan_edges(ctx)? {
                match item {
                    Ok(local) => out.push(Ok(encode_eid(local, s, self.n()))),
                    Err(e) => {
                        out.push(Err(e));
                        return Ok(out);
                    }
                }
            }
        }
        Ok(out)
    }

    pub fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let (local, owner) = decode_vid(v, self.n());
        self.shard(owner).vertex_property(local, name)
    }

    pub fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (local, s) = decode_eid(e, self.n());
        self.shard(s).edge_property(local, name)
    }

    pub fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        let (local, s) = decode_eid(e, self.n());
        Ok(self.shard(s).edge_endpoints(local)?.map(|(src, dst)| {
            (
                self.meta().to_composite(s, src),
                self.meta().to_composite(s, dst),
            )
        }))
    }

    pub fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        let (local, s) = decode_eid(e, self.n());
        self.shard(s).edge_label(local)
    }

    pub fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        let (local, owner) = decode_vid(v, self.n());
        self.shard(owner).vertex_label(local)
    }

    pub fn has_vertex_index(&self, prop: &str) -> bool {
        (0..self.n()).all(|s| self.shard(s).has_vertex_index(prop))
    }

    pub fn space(&self) -> SpaceReport {
        // Sum same-named components across shards so the report shape stays
        // that of one engine, then account the routing maps.
        let mut by_name: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for s in 0..self.n() {
            for (component, bytes) in self.shard(s).space().components {
                *by_name.entry(component).or_insert(0) += bytes;
            }
        }
        let mut report = SpaceReport::default();
        for (component, bytes) in by_name {
            report.add(component, bytes);
        }
        report.add("shard routing maps", self.meta().approx_bytes());
        report
    }
}

/// An immutable composite epoch view: one pinned snapshot per shard plus a
/// [`Meta`] clone (shared refcounts, see `route`), produced by
/// `ShardedSource`. The composite epoch is the
/// **minimum** over the shard epochs — the newest graph version every shard
/// is guaranteed to have published — which is monotone because each shard's
/// epochs are.
pub struct ShardedView {
    pub(crate) name: String,
    pub(crate) shards: Vec<Box<dyn GraphSnapshot>>,
    pub(crate) meta: Meta,
    pub(crate) epoch: u64,
}

impl PartsHost for ShardedView {
    fn host_name(&self) -> &str {
        &self.name
    }

    fn host_shards(&self) -> usize {
        self.shards.len()
    }

    fn host_epoch(&self) -> u64 {
        self.epoch
    }

    fn with_parts<R>(&self, _need: ShardSel, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        // Everything is pinned and owned: nothing to acquire per op.
        let views: Vec<(usize, &dyn GraphSnapshot)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, b)| (s, b.as_ref()))
            .collect();
        Ok(f(&Parts {
            name: &self.name,
            n: views.len(),
            shards: &views,
            meta: Some(&self.meta),
        }))
    }
}
