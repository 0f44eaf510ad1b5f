//! The one routing writer: placement, composite-id math, cut edges and
//! their ghosts, cross-shard vertex removal and the retirement of removed
//! loaded ids — over a narrow [`ShardPort`].
//!
//! A port is *how shard `s` is reached*: a `RwLock`ed engine
//! (`ShardedGraph`), an MVCC cell (`ShardedSource`), or a pipelined
//! connection to a shard server (`gm-net`'s fleet). It reads shard `s`,
//! applies one single-shard write — a [`Mutation`] in shard-local ids — to
//! shard `s`, and publishes shard `s`. Everything that
//! makes N shards one graph lives here, once, in [`Router`]; the routing
//! state it mutates lives in the host's [`Topology`].
//!
//! ## The cut-edge sequence
//!
//! An edge lives on its source's shard. For a remote destination the
//! router looks the ghost up first (one meta read — an existing ghost
//! proves the endpoint existed when the ghost was made, since vertex
//! removal deletes its ghosts); only on a miss does it validate the remote
//! endpoint (one read of the owner shard, nothing else held) and create
//! the ghost under the topology guard, re-checking for a racing creator. A
//! removal racing between check and insert is the weakening every
//! cross-partition store without a global clock accepts.
//!
//! ## Topology changes
//!
//! Ghost creation, vertex removal and bulk load run under
//! [`Topology::enter`]; every shard mutated under the guard is published
//! through the port **before the guard is released**, so a new meta can
//! never be paired with a shard view from before the change. Removing a
//! loaded edge enters the topology after its single-shard write, only to
//! retire the edge's canonical id; removing any other edge is the write
//! alone. A staged transaction commit hands the router its already-held
//! guard ([`Router::staged`]): the router then changes the meta in place
//! and leaves publishing every touched shard to [`Router::finish`].

use std::borrow::Cow;
use std::collections::BTreeSet;

use gm_model::api::{Applied, Direction, GraphDb, GraphSnapshot, LoadStats, Mutation};
use gm_model::{Eid, GdbError, GdbResult, QueryCtx, Vid};

use crate::route::{
    build_meta, decode_eid, decode_vid, encode_eid, partition, Meta, Probe, GHOST_LABEL,
};
use crate::topology::Topology;
use crate::view::{Parts, PartsHost, ShardSel};

/// What a posted write answered (see [`ShardPort::post`]).
#[derive(Debug)]
pub enum Posted {
    /// The shard applied the write; this is its answer.
    Applied(Applied),
    /// A port that queues writes answers a posted creation with a claim on
    /// the id instead: an opaque composite-space placeholder only that
    /// port can redeem (see [`ShardPort::admit_vid`]).
    Deferred(u64),
}

impl Posted {
    /// The composite id of a creation posted to shard `s` of `n`.
    fn composite(self, s: usize, n: usize) -> GdbResult<u64> {
        match self {
            Posted::Deferred(claim) => Ok(claim),
            Posted::Applied(out) => Ok(out.id()? * n as u64 + s as u64),
        }
    }
}

/// How a composite reaches its shards. See the module docs.
pub trait ShardPort: Send + Sync {
    /// Run `f` against read views of the shards `need` names
    /// (`need.shards(n, meta)`, acquired ascending and held together), as
    /// `(shard, view)` pairs.
    fn with_views<R>(
        &self,
        need: &ShardSel,
        meta: Option<&Meta>,
        f: impl FnOnce(&[(usize, &dyn GraphSnapshot)]) -> R,
    ) -> GdbResult<R>;

    /// Run `f` against a read view of shard `s` alone.
    fn read<R>(
        &self,
        s: usize,
        f: impl FnOnce(&dyn GraphSnapshot) -> GdbResult<R>,
    ) -> GdbResult<R> {
        // gm-lock: shard transient
        self.with_views(&ShardSel::Point(s), None, |views| match views.first() {
            Some((_, view)) => f(*view),
            None => Err(GdbError::Corrupt(format!(
                "the port acquired no view of shard {s}"
            ))),
        })?
    }

    /// Apply one write to shard `s` now and return its answer.
    fn apply(&self, s: usize, m: Mutation<'_>) -> GdbResult<Applied>;

    /// Apply a write whose answer the router only hands back to its
    /// caller. A pipelined port may queue it and answer a creation with
    /// [`Posted::Deferred`].
    fn post(&self, s: usize, m: Mutation<'_>) -> GdbResult<Posted> {
        self.apply(s, m).map(Posted::Applied)
    }

    /// Make shard `s`'s applied writes visible to new readers (the router
    /// calls this for every shard a topology change mutated, before the
    /// change's guard is released).
    fn publish(&self, _s: usize) -> GdbResult<()> {
        Ok(())
    }

    /// The epoch reads through this port observe (0 = unversioned: reads
    /// see whatever writes have landed).
    fn epoch(&self) -> u64 {
        0
    }

    /// Check a vertex id entering the router: a port that hands out
    /// deferred ids refuses or redeems them here.
    fn admit_vid(&self, v: Vid) -> GdbResult<Vid> {
        Ok(v)
    }

    /// Check an edge id entering the router (see [`ShardPort::admit_vid`]).
    fn admit_eid(&self, e: Eid) -> GdbResult<Eid> {
        Ok(e)
    }
}

/// Run a composite read over `port`: under the routing meta `held` by the
/// caller, or else under the topology's read guard for `need`.
pub(crate) fn read_parts<P: ShardPort, R>(
    name: &str,
    topo: &Topology,
    held: Option<&Meta>,
    port: &P,
    need: ShardSel,
    f: impl FnOnce(&Parts<'_>) -> R,
) -> GdbResult<R> {
    // gm-lock: meta
    let guard = match held {
        Some(_) => None,
        None => topo.read_for(&need)?,
    };
    let meta = held.or(guard.as_deref());
    let n = topo.shards();
    if topo.metrics().is_some() {
        need.shards(n, meta).for_each(|s| topo.note_op(s));
    }
    // gm-lock: shard
    port.with_views(&need, meta, |shards| {
        f(&Parts {
            name,
            n,
            shards,
            meta,
        })
    })
}

/// A topology change in progress: the routing meta under its guard, plus
/// the port, recording every shard mutated so it is published before the
/// guard goes.
struct Change<'c, P> {
    meta: &'c mut Meta,
    topo: &'c Topology,
    port: &'c P,
    touched: &'c mut BTreeSet<usize>,
}

impl<P: ShardPort> Change<'_, P> {
    fn apply_to(&mut self, s: usize, m: Mutation<'_>) -> GdbResult<Applied> {
        self.topo.note_op(s);
        let out = self.port.apply(s, m)?;
        self.touched.insert(s);
        Ok(out)
    }
}

/// The routing mutation handle of a composite: a [`GraphDb`] whose every
/// mutation reaches only the shards it touches, and a full
/// [`GraphSnapshot`] over the same port. One reference each to the host's
/// name, [`Topology`] and port — cheap enough to build per op.
pub struct Router<'a, P> {
    name: &'a str,
    topo: &'a Topology,
    port: P,
    /// The routing meta of an already-held topology guard (staged commit).
    held: Option<&'a mut Meta>,
    /// Shards mutated under `held`, awaiting [`Router::finish`].
    touched: BTreeSet<usize>,
}

impl<'a, P: ShardPort> Router<'a, P> {
    /// Route over `port`, entering the topology per change.
    pub fn over(name: &'a str, topo: &'a Topology, port: P) -> Self {
        Router {
            name,
            topo,
            port,
            held: None,
            touched: BTreeSet::new(),
        }
    }

    /// Route a staged commit: the caller holds `topo`'s guard (whose meta
    /// is `held`) for the whole replay and calls [`Router::finish`] before
    /// releasing it.
    pub fn staged(name: &'a str, topo: &'a Topology, port: P, held: &'a mut Meta) -> Self {
        Router {
            held: Some(held),
            ..Router::over(name, topo, port)
        }
    }

    /// Publish every shard the staged replay mutated.
    pub fn finish(self) -> GdbResult<()> {
        self.touched.iter().try_for_each(|s| self.port.publish(*s))
    }

    fn n(&self) -> usize {
        self.topo.shards()
    }

    /// A single-shard write whose answer goes straight back to the caller.
    fn post_to(&mut self, s: usize, m: Mutation<'_>) -> GdbResult<Posted> {
        let out = self.port.post(s, m);
        self.landed(s, out)
    }

    /// A single-shard write whose answer the router needs now.
    fn apply_to(&mut self, s: usize, m: Mutation<'_>) -> GdbResult<Applied> {
        let out = self.port.apply(s, m);
        self.landed(s, out)
    }

    fn landed<T>(&mut self, s: usize, out: GdbResult<T>) -> GdbResult<T> {
        self.topo.note_op(s);
        if out.is_ok() && self.held.is_some() {
            self.touched.insert(s);
        }
        out
    }

    /// Run a topology change: under the held guard if there is one, else
    /// under a fresh one — publishing what it touched before release.
    fn change<R>(&mut self, f: impl FnOnce(&mut Change<'_, P>) -> GdbResult<R>) -> GdbResult<R> {
        let (topo, port) = (self.topo, &self.port);
        if let Some(meta) = self.held.as_deref_mut() {
            let touched = &mut self.touched;
            return f(&mut Change {
                meta,
                topo,
                port,
                touched,
            });
        }
        // gm-lock: meta
        let mut guard = topo.enter()?;
        let mut touched = BTreeSet::new();
        let out = f(&mut Change {
            meta: &mut guard,
            topo,
            port,
            touched: &mut touched,
        })?;
        touched.iter().try_for_each(|s| port.publish(*s))?;
        Ok(out)
    }

    /// Structural ops bypass a transaction's write set: refuse them inside
    /// a staged commit.
    fn structural(&self, what: &str) -> GdbResult<()> {
        match self.held {
            Some(_) => Err(GdbError::Unsupported(format!(
                "{what} inside a transaction commit"
            ))),
            None => Ok(()),
        }
    }

    /// The local id standing in for remote vertex `dst` on shard `s`. See
    /// the module docs for the sequence.
    fn ghost_for(&mut self, s: usize, dst: Vid) -> GdbResult<Vid> {
        let known = match &self.held {
            Some(meta) => meta.local_on(s, dst),
            // gm-lock: meta transient
            None => self.topo.read()?.local_on(s, dst),
        };
        if let Some(ghost) = known {
            return Ok(ghost);
        }
        let (local, owner) = decode_vid(dst, self.n());
        if self.port.read(owner, |view| view.vertex(local))?.is_none() {
            return Err(GdbError::VertexNotFound(dst.0));
        }
        self.change(|c| {
            if let Some(ghost) = c.meta.local_on(s, dst) {
                return Ok(ghost); // raced another writer: reuse
            }
            let ghost = Mutation::AddVertex(GHOST_LABEL.into(), Cow::Owned(Vec::new()));
            let ghost = Vid(c.apply_to(s, ghost)?.id()?);
            c.meta.add_ghost(s, dst, ghost);
            c.topo.note_ghost_creation();
            Ok(ghost)
        })
    }
}

impl<P: ShardPort> PartsHost for Router<'_, P> {
    fn host_name(&self) -> &str {
        self.name
    }

    fn host_shards(&self) -> usize {
        self.n()
    }

    fn host_epoch(&self) -> u64 {
        self.port.epoch()
    }

    fn with_parts<R>(&self, need: ShardSel, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        read_parts(
            self.name,
            self.topo,
            self.held.as_deref(),
            &self.port,
            need,
            f,
        )
    }
}

impl<P: ShardPort> GraphDb for Router<'_, P> {
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
        let n = self.n();
        match m {
            Mutation::BulkLoad(data, opts) => {
                self.structural("bulk load")?;
                self.change(|c| {
                    let parts = partition(&data, n)?;
                    for (s, sub) in parts.subs.iter().enumerate() {
                        c.apply_to(s, Mutation::BulkLoad(Cow::Borrowed(sub), opts.clone()))?;
                    }
                    // gm-lock: shard
                    let meta = c.port.with_views(&ShardSel::All, None, |views| {
                        build_meta(&parts, n, |s, probe, locals| {
                            let view = views[s].1;
                            Ok(locals
                                .iter()
                                .map(|&l| match probe {
                                    Probe::Vertex => view.resolve_vertex(l).map(|v| v.0),
                                    Probe::Edge => view.resolve_edge(l).map(|e| e.0),
                                })
                                .collect())
                        })
                    })??;
                    c.topo.install(c.meta, meta);
                    Ok(())
                })?;
                Ok(Applied::Loaded(LoadStats {
                    vertices: data.vertex_count() as u64,
                    edges: data.edge_count() as u64,
                }))
            }
            Mutation::AddVertex(label, props) => {
                let s = self.topo.place();
                let out = self.post_to(s, Mutation::AddVertex(label, props))?;
                out.composite(s, n).map(Applied::Id)
            }
            Mutation::AddEdge(src, dst, label, props) => {
                let (src, dst) = (self.port.admit_vid(src)?, self.port.admit_vid(dst)?);
                let (local_src, s) = decode_vid(src, n);
                let (local_dst, dst_shard) = decode_vid(dst, n);
                // Same-shard edge: the inner engine validates both endpoints.
                let local_dst = if dst_shard == s {
                    local_dst
                } else {
                    self.ghost_for(s, dst)?
                };
                let out = self.post_to(s, Mutation::AddEdge(local_src, local_dst, label, props))?;
                out.composite(s, n).map(Applied::Id)
            }
            Mutation::SetVertexProperty(v, name, value) => {
                let (local, s) = decode_vid(self.port.admit_vid(v)?, n);
                self.post_to(s, Mutation::SetVertexProperty(local, name, value))?;
                Ok(Applied::Done)
            }
            Mutation::SetEdgeProperty(e, name, value) => {
                let (local, s) = decode_eid(self.port.admit_eid(e)?, n);
                self.post_to(s, Mutation::SetEdgeProperty(local, name, value))?;
                Ok(Applied::Done)
            }
            Mutation::RemoveVertex(v) => {
                let v = self.port.admit_vid(v)?;
                self.change(|c| {
                    let presence = c.meta.presence(v);
                    // Collect the incident edges before anything is removed,
                    // so the loaded ones are retired with the vertex.
                    let ctx = QueryCtx::unbounded();
                    let mut dead_edges: Vec<Eid> = Vec::new();
                    for &(s, local) in &presence {
                        let refs = c.port.read(s, |view| match view.vertex(local)? {
                            Some(_) => view.vertex_edges(local, Direction::Both, None, &ctx),
                            None => Ok(Vec::new()),
                        })?;
                        let dead = refs.into_iter().map(|r| encode_eid(r.eid, s, n));
                        dead_edges.extend(dead.filter(|e| c.topo.loaded_edge(*e)));
                    }
                    // The owner's removal validates existence; only then ghosts.
                    let mut shards = presence.into_iter();
                    if let Some((owner, local)) = shards.next() {
                        c.apply_to(owner, Mutation::RemoveVertex(local))?;
                    }
                    for (s, ghost) in shards {
                        c.meta.remove_ghost(s, v);
                        c.apply_to(s, Mutation::RemoveVertex(ghost))?;
                    }
                    for e in dead_edges {
                        c.meta.retire_edge(e);
                    }
                    if c.topo.loaded_vertex(v) {
                        c.meta.retire_vertex(v);
                    }
                    Ok(Applied::Done)
                })
            }
            Mutation::RemoveEdge(e) => {
                let e = self.port.admit_eid(e)?;
                let (local, s) = decode_eid(e, n);
                self.post_to(s, Mutation::RemoveEdge(local))?;
                // An orphaned ghost (its last in-edge gone) is retained: it
                // stays invisible to every read and the next cut edge to the
                // same destination reuses it. Only a load's ids resolve, so
                // removing any other edge touches no routing state.
                if self.topo.loaded_edge(e) {
                    match self.held.as_deref_mut() {
                        Some(meta) => meta.retire_edge(e),
                        // gm-lock: meta
                        None => self.topo.enter()?.retire_edge(e),
                    }
                }
                Ok(Applied::Done)
            }
            Mutation::RemoveVertexProperty(v, name) => {
                let (local, s) = decode_vid(self.port.admit_vid(v)?, n);
                self.apply_to(s, Mutation::RemoveVertexProperty(local, name))
            }
            Mutation::RemoveEdgeProperty(e, name) => {
                let (local, s) = decode_eid(self.port.admit_eid(e)?, n);
                self.apply_to(s, Mutation::RemoveEdgeProperty(local, name))
            }
            Mutation::CreateVertexIndex(prop) => {
                self.structural("create_vertex_index")?;
                // Homogeneous shards: either all support indexes or none
                // does, so a first-shard failure leaves no partial state.
                for s in 0..n {
                    self.apply_to(s, Mutation::CreateVertexIndex(Cow::Borrowed(&prop)))?;
                }
                Ok(Applied::Done)
            }
            Mutation::Sync => {
                for s in 0..n {
                    self.apply_to(s, Mutation::Sync)?;
                }
                Ok(Applied::Done)
            }
        }
    }
}
