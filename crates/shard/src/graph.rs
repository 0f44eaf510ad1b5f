//! The locked-mode composite: per-shard `RwLock`s instead of one engine-wide
//! lock.
//!
//! [`ShardedGraph<E>`] implements [`GraphSnapshot`] and [`GraphDb`], so it
//! drops unchanged into `catalog::execute_read` and the sequential `Runner`,
//! and it is a [`Host`] — reads run against the composite itself, write
//! batches through a [`SharedWriter`] — so the workload driver
//! ([`ShardedBackend`]) and `gm-net`'s server host it with no lock of their
//! own on the op path. It is the shared routing
//! core (`view`'s read surface, [`Router`]'s writes) over [`LockedPort`],
//! whose whole job is the locking discipline — **ops lock only the shards
//! they touch**:
//!
//! * point reads (`vertex`, properties, labels) take one shard's read guard
//!   and no meta lock; `out()`-direction work adds the meta read guard;
//!   `in()`/`both()` gathers take the vertex's presence set (owner +
//!   ghosting shards, typically 1–2); whole-graph scans and counts take
//!   every read guard and therefore still observe one consistent
//!   cross-shard state;
//! * single-shard writes (add vertex/edge, property ops, edge removal)
//!   take only the owning shard's write guard — two writers landing on
//!   different shards run in parallel, which is the whole point;
//! * topology changes (vertex removal, ghost creation, bulk load) hold the
//!   meta **writer** lock and take shard guards one at a time under it.
//!
//! A multi-shard read locks its shard set *simultaneously* under the meta
//! read guard, so each **primitive** is atomic with respect to every
//! single-shard write and excluded from every topology change; two reads
//! touching disjoint shard sets may observe independent single-shard writes
//! in either order. Isolation is therefore **per primitive**: a query
//! composed of several primitives (BFS, degree filters) re-acquires locks
//! between steps and may observe concurrent writes in between — unlike the
//! engine-wide `RwLock`, whose guard a session holds across the whole
//! query. That weakening is the standard consistency of a partitioned
//! store without a global clock, and it is part of what the fig10
//! comparison measures; read-only equivalence (no writers) is unaffected.
//!
//! Deadlock freedom: the global acquisition order is **meta, then shard
//! guards in ascending index order**; no path acquires the meta lock while
//! holding a shard guard. Every acquisition runs through
//! [`gm_model::lockwait`], so the workload driver's lock-wait column
//! decomposes per-partition waiting against the single-lock baseline.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use gm_model::api::{Applied, GraphDb, GraphSnapshot, Mutation};
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{lockwait, GdbError, GdbResult};
use gm_mvcc::WriteFn;
use gm_workload::{Host, HostBackend, ReadFn};

use crate::route::Meta;
use crate::router::{read_parts, Router, ShardPort};
use crate::topology::Topology;
use crate::view::{Parts, PartsHost, ShardSel};

fn poisoned(what: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "sharded graph {what} lock poisoned by a panicking writer"
    ))
}

/// Hash-partitioned composite over `N` inner engines, each behind its own
/// lock. See the module docs for the locking discipline and `route` for the
/// partitioning scheme.
pub struct ShardedGraph<E: GraphDb + 'static> {
    name: String,
    shards: Vec<RwLock<E>>,
    topo: Topology,
}

impl<E: GraphDb + 'static> ShardedGraph<E> {
    /// Build a composite of `shards` fresh engines from `make`.
    ///
    /// Panics if `shards == 0`.
    pub fn from_factory(shards: usize, make: impl Fn() -> E) -> Self {
        let topo = Topology::new(shards);
        let engines: Vec<RwLock<E>> = (0..shards).map(|_| RwLock::new(make())).collect();
        let inner_name = engines[0].read().expect("fresh lock").name();
        ShardedGraph {
            name: format!("{inner_name}/s{shards}"),
            shards: engines,
            topo,
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current depth of the deferred purge queue (diagnostics and tests;
    /// the `shard.pending_purges` gauge mirrors this under `GM_OBS`).
    pub fn pending_purge_depth(&self) -> usize {
        self.topo.pending_purge_depth()
    }
}

/// The [`ShardPort`] of a [`ShardedGraph`]: shard `s` is reached through
/// its own `RwLock`.
pub struct LockedPort<'a, E>(&'a [RwLock<E>]);

impl<E: GraphDb + 'static> LockedPort<'_, E> {
    fn rlock(&self, s: usize) -> GdbResult<Ranked<RwLockReadGuard<'_, E>>> {
        // gm-lock: shard
        let t = lockorder::acquire(LockRank::Shard(s as u32), "gm-shard/graph.rs shard read");
        lockwait::timed(|| self.0[s].read())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("shard read"))
    }

    fn wlock(&self, s: usize) -> GdbResult<Ranked<RwLockWriteGuard<'_, E>>> {
        // gm-lock: shard
        let t = lockorder::acquire(LockRank::Shard(s as u32), "gm-shard/graph.rs shard write");
        lockwait::timed(|| self.0[s].write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("shard write"))
    }
}

impl<E: GraphDb + 'static> ShardPort for LockedPort<'_, E> {
    fn with_views<R>(
        &self,
        need: &ShardSel,
        meta: Option<&Meta>,
        f: impl FnOnce(&[(usize, &dyn GraphSnapshot)]) -> R,
    ) -> GdbResult<R> {
        if let Some(s) = need.single() {
            // gm-lock: shard
            let guard = self.rlock(s)?;
            return Ok(f(&[(s, &*guard)]));
        }
        // A multi-shard selection is held simultaneously (ascending), so
        // the read is atomic with respect to every write touching it.
        let mut guards = Vec::new();
        for s in need.shards(self.0.len(), meta) {
            // gm-lock: shard
            guards.push((s, self.rlock(s)?));
        }
        let views: Vec<(usize, &dyn GraphSnapshot)> =
            guards.iter().map(|(s, g)| (*s, &**g as _)).collect();
        Ok(f(&views))
    }

    fn apply(&self, s: usize, m: Mutation<'_>) -> GdbResult<Applied> {
        // gm-lock: shard
        self.wlock(s)?.apply(m)
    }
}

impl<E: GraphDb + 'static> PartsHost for ShardedGraph<E> {
    fn host_name(&self) -> &str {
        &self.name
    }

    fn host_shards(&self) -> usize {
        self.shards.len()
    }

    fn host_epoch(&self) -> u64 {
        // Unversioned: reads observe whatever writes have landed, exactly
        // like the engine-wide `RwLock` this composite replaces.
        0
    }

    fn with_parts<R>(&self, need: ShardSel, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        let port = LockedPort(&self.shards);
        read_parts(&self.name, &self.topo, None, &port, need, f)
    }
}

impl<E: GraphDb + 'static> GraphDb for ShardedGraph<E> {
    // Exclusive access routes through the same shared-reference write path
    // concurrent writers use: a throwaway `SharedWriter` per call costs
    // nothing (three references) and keeps exactly one implementation of
    // every mutation.
    gm_model::forward_graph_db!(target = |s| SharedWriter::new(s));
}

/// Isolation label reported by sharded-locked runs.
pub const SHARDED_LOCKED: &str = "sharded-locked";

/// The driver's per-shard-locked backend: a [`HostBackend`] over a
/// composite. A query re-acquires shard locks per primitive, so
/// multi-primitive reads racing writers may observe intermediate states
/// (see the module docs); read-only determinism is unaffected.
pub type ShardedBackend<'a, E> = HostBackend<'a, ShardedGraph<E>>;

/// The composite synchronizes internally, so a host needs no lock of its
/// own: reads run against the composite (each primitive locks the shards it
/// touches), write batches through a [`SharedWriter`] (each mutation locks
/// only its shard — writers to different shards run in parallel).
impl<E: GraphDb + 'static> Host for ShardedGraph<E> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn isolation(&self) -> String {
        SHARDED_LOCKED.into()
    }

    fn read_view(&self, _staleness: Duration, f: &mut ReadFn<'_>) -> GdbResult<(u64, Option<u64>)> {
        Ok((f(self)?, None))
    }

    fn write_batch(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
        f(&mut SharedWriter::new(self))
    }
}

/// A zero-cost mutation handle over a shared [`ShardedGraph`] reference:
/// the [`Router`] over its [`LockedPort`], so the standard write paths
/// (`apply_write`, the write half of `catalog::execute`) run unchanged, but
/// each mutation locks only the shard it touches — the reason concurrent
/// writers on different shards stop serializing.
pub type SharedWriter<'a, E> = Router<'a, LockedPort<'a, E>>;

impl<'a, E: GraphDb + 'static> SharedWriter<'a, E> {
    /// Wrap a shared composite reference.
    pub fn new(graph: &'a ShardedGraph<E>) -> Self {
        Router::over(&graph.name, &graph.topo, LockedPort(&graph.shards))
    }
}
