//! The one owner of a composite's routing state.
//!
//! [`Topology`] holds what every sharded host shares — the routing
//! [`Meta`], the round-robin placement counter, which local ids the last
//! bulk load handed out, and the `shard.*` metrics — behind one
//! rank-tracked lock, so the locked composite, the snapshot source and the
//! fleet coordinator all route through the same plumbing and differ only in
//! their [`ShardPort`](crate::router::ShardPort).
//!
//! ## Topology changes
//!
//! A mutation that changes the meta (ghost creation, vertex removal, the
//! removal of a loaded edge, bulk load) runs under [`Topology::enter`]: the
//! meta writer lock plus a seqlock word flipped odd for the guard's
//! lifetime. Locked readers are excluded by the lock itself; lock-free
//! composite pins (`ShardedSource`) read the seqlock and retry instead of
//! pairing a new meta with an old shard view. Removing a dynamically added
//! element takes no meta lock at all: [`Topology::loaded_edge`] tells it
//! apart from the atomics a load sets.
//!
//! Lock order: meta, then shard guards ascending (the port's).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{lockwait, Eid, GdbError, GdbResult, Vid};
use gm_obs::Counter;

use crate::route::{decode_eid, decode_vid, Meta};
use crate::view::ShardSel;

fn poisoned(what: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "sharded topology {what} lock poisoned by a panicking writer"
    ))
}

/// Registry handles for one composite, resolved at construction and `None`
/// under `GM_OBS=off`. The per-shard op counters (`shard.{i}.ops`) are the
/// balance figure the server's periodic stats line reports; composites of
/// the same shard count share names and aggregate.
pub struct ShardMetrics {
    shard_ops: Vec<Counter>,
    /// Composite pins taken (`ShardedSource`).
    pub pins: Counter,
    /// Composite pins that had to retry (or wait out) a topology change.
    pub seqlock_retries: Counter,
    ghost_creations: Counter,
}

impl ShardMetrics {
    fn new(shards: usize) -> Option<ShardMetrics> {
        if !gm_obs::counters_on() {
            return None;
        }
        let g = gm_obs::global();
        Some(ShardMetrics {
            shard_ops: (0..shards)
                .map(|i| g.counter(&format!("shard.{i}.ops")))
                .collect(),
            pins: g.counter("shard.pins"),
            seqlock_retries: g.counter("shard.seqlock_retries"),
            ghost_creations: g.counter("shard.ghost_creations"),
        })
    }
}

/// Routing meta + placement counter + load bounds + metrics of one
/// composite. See the module docs.
pub struct Topology {
    shards: usize,
    meta: RwLock<Meta>,
    /// Seqlock word: odd while a topology change is in flight. Only the
    /// holder of the meta writer lock flips it, so transitions serialize.
    seq: AtomicU64,
    /// Round-robin placement counter for dynamically added vertices.
    spread: AtomicU64,
    /// Per shard: one past the largest local `[vertex, edge]` id the last
    /// bulk load handed out (see [`Meta::loaded_bounds`]). Written only
    /// under the topology guard.
    loaded: Vec<[AtomicU64; 2]>,
    metrics: Option<ShardMetrics>,
}

impl Topology {
    /// Empty routing state for `shards` partitions.
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Topology {
        assert!(shards >= 1, "a sharded composite needs at least one shard");
        Topology {
            shards,
            meta: RwLock::new(Meta::new(shards)),
            seq: AtomicU64::new(0),
            spread: AtomicU64::new(0),
            loaded: (0..shards).map(|_| Default::default()).collect(),
            metrics: ShardMetrics::new(shards),
        }
    }

    /// Number of partitions.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The `shard.*` registry handles (`None` under `GM_OBS=off`).
    pub fn metrics(&self) -> Option<&ShardMetrics> {
        self.metrics.as_ref()
    }

    /// Count an op routed to shard `s` (no-op under `GM_OBS=off`).
    pub fn note_op(&self, s: usize) {
        if let Some(m) = &self.metrics {
            m.shard_ops[s].inc();
        }
    }

    /// Count a ghost vertex materialized for a first cut edge.
    pub fn note_ghost_creation(&self) {
        if let Some(m) = &self.metrics {
            m.ghost_creations.inc();
        }
    }

    /// Place a dynamically added vertex: round-robin over the shards.
    pub fn place(&self) -> usize {
        // gm-check: relaxed(round-robin placement counter: any interleaving is a valid placement)
        (self.spread.fetch_add(1, Ordering::Relaxed) % self.shards as u64) as usize
    }

    /// Restart round-robin placement from shard 0 (a freshly loaded fleet
    /// must place exactly like a newly constructed composite).
    pub fn restart_placement(&self) {
        // gm-check: relaxed(setup path, single-threaded; the counter restarts from zero)
        self.spread.store(0, Ordering::Relaxed);
    }

    /// The seqlock word: odd while a topology change is in flight.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Read-lock the routing meta.
    pub fn read(&self) -> GdbResult<Ranked<RwLockReadGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-shard/topology.rs meta read");
        lockwait::timed(|| self.meta.read())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta read"))
    }

    /// The meta guard a read with need `need` runs under: none for a
    /// meta-free point read.
    pub fn read_for(
        &self,
        need: &ShardSel,
    ) -> GdbResult<Option<Ranked<RwLockReadGuard<'_, Meta>>>> {
        match need {
            ShardSel::Point(_) => Ok(None),
            // gm-lock: meta
            _ => self.read().map(Some),
        }
    }

    fn write(&self) -> GdbResult<Ranked<RwLockWriteGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-shard/topology.rs meta write");
        lockwait::timed(|| self.meta.write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta write"))
    }

    /// Begin a topology change: meta writer lock, seqlock odd. The guard
    /// flips the seqlock back on drop — panic included, so a failing change
    /// can never wedge every future pin.
    pub fn enter(&self) -> GdbResult<TopoGuard<'_>> {
        // gm-lock: meta
        let meta = self.write()?;
        self.seq.fetch_add(1, Ordering::SeqCst);
        Ok(TopoGuard { meta, topo: self })
    }

    /// Install the meta of a fresh bulk load as `held` — this topology's
    /// meta, under its guard — keeping which local ids the load handed out.
    pub fn install(&self, held: &mut Meta, meta: Meta) {
        for (bounds, loaded) in meta.loaded_bounds().iter().zip(&self.loaded) {
            for (bound, slot) in bounds.iter().zip(loaded) {
                slot.store(*bound, Ordering::SeqCst);
            }
        }
        *held = meta;
    }

    /// Whether composite vertex `v` has an id the last bulk load handed
    /// out — the only vertices whose removal changes the meta's
    /// resolution.
    pub fn loaded_vertex(&self, v: Vid) -> bool {
        let (local, s) = decode_vid(v, self.shards);
        local.0 < self.loaded[s][0].load(Ordering::SeqCst)
    }

    /// Whether composite edge `e` has an id the last bulk load handed out
    /// (see [`Topology::loaded_vertex`]).
    pub fn loaded_edge(&self, e: Eid) -> bool {
        let (local, s) = decode_eid(e, self.shards);
        local.0 < self.loaded[s][1].load(Ordering::SeqCst)
    }
}

/// Holder of an in-flight topology change (see [`Topology::enter`]);
/// derefs to the routing [`Meta`].
pub struct TopoGuard<'a> {
    meta: Ranked<RwLockWriteGuard<'a, Meta>>,
    topo: &'a Topology,
}

impl std::ops::Deref for TopoGuard<'_> {
    type Target = Meta;
    fn deref(&self) -> &Meta {
        &self.meta
    }
}

impl std::ops::DerefMut for TopoGuard<'_> {
    fn deref_mut(&mut self) -> &mut Meta {
        &mut self.meta
    }
}

impl Drop for TopoGuard<'_> {
    fn drop(&mut self) {
        self.topo.seq.fetch_add(1, Ordering::SeqCst);
    }
}
