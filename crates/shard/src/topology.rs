//! The one owner of a composite's routing state.
//!
//! [`Topology`] holds what every sharded host shares — the routing
//! [`Meta`], the round-robin placement counter, the deferred purge queue
//! and the `shard.*` metrics — behind one set of rank-tracked locks, so the
//! locked composite, the snapshot source and the fleet coordinator all
//! route through the same plumbing and differ only in their
//! [`ShardPort`](crate::router::ShardPort).
//!
//! ## Topology changes
//!
//! A mutation that changes the ghost maps (ghost creation, vertex removal,
//! bulk load) runs under [`Topology::enter`]: the meta writer lock plus a
//! seqlock word flipped odd for the guard's lifetime. Locked readers are
//! excluded by the lock itself; lock-free composite pins
//! (`ShardedSource`) read the seqlock and retry instead of pairing a new
//! meta with an old shard view.
//!
//! ## Deferred purges
//!
//! Purging a removed edge from the canonical resolution maps needs the meta
//! **writer** lock — a global serializer on a hot write path — so plain
//! removals append to a queue (a nanosecond push under an uncontended
//! mutex). The queue drains whenever the writer lock is taken anyway
//! ([`Topology::enter`]), before any canonical resolution or `Meta` clone
//! ([`Topology::drain_purges`]), and at a depth cap that bounds it on
//! removal-heavy mixes that never hit either path.
//!
//! Lock order: meta, then shard guards ascending (the port's), then the
//! purge queue (leaf).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{lockwait, Eid, GdbError, GdbResult};
use gm_obs::{Counter, Gauge};

use crate::route::Meta;
use crate::view::ShardSel;

/// Purge-queue depth at which an edge removal drains instead of deferring
/// further: one meta write per `PURGE_DRAIN_THRESHOLD` removals amortizes
/// to noise.
const PURGE_DRAIN_THRESHOLD: usize = 1024;

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
    pending_purges: Gauge,
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
            pending_purges: g.gauge("shard.pending_purges"),
        })
    }
}

/// Routing meta + placement counter + purge queue + metrics of one
/// composite. See the module docs.
pub struct Topology {
    shards: usize,
    meta: RwLock<Meta>,
    /// Seqlock word: odd while a topology change is in flight. Only the
    /// holder of the meta writer lock flips it, so transitions serialize.
    seq: AtomicU64,
    /// Round-robin placement counter for dynamically added vertices.
    spread: AtomicU64,
    /// Composite edge ids removed but not yet purged from the resolution
    /// maps.
    pending_purges: Mutex<Vec<Eid>>,
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
            pending_purges: Mutex::new(Vec::new()),
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
    /// meta-free point read, and deferred purges land first for canonical
    /// resolution — so a removed element has stopped resolving.
    pub fn read_for(
        &self,
        need: &ShardSel,
    ) -> GdbResult<Option<Ranked<RwLockReadGuard<'_, Meta>>>> {
        match need {
            ShardSel::Point(_) => return Ok(None),
            ShardSel::Meta => self.drain_purges()?,
            _ => {}
        }
        // gm-lock: meta
        self.read().map(Some)
    }

    fn write(&self) -> GdbResult<Ranked<RwLockWriteGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-shard/topology.rs meta write");
        lockwait::timed(|| self.meta.write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta write"))
    }

    /// Begin a topology change: meta writer lock, seqlock odd, deferred
    /// purges applied. The guard flips the seqlock back on drop — panic
    /// included, so a failing change can never wedge every future pin.
    pub fn enter(&self) -> GdbResult<TopoGuard<'_>> {
        // gm-lock: meta
        let meta = self.write()?;
        self.seq.fetch_add(1, Ordering::SeqCst);
        let mut guard = TopoGuard { meta, topo: self };
        // gm-lock: leaf
        for e in self.purge_queue()?.drain(..) {
            guard.meta.purge_edge(e);
        }
        self.note_pending(0);
        Ok(guard)
    }

    /// The purge queue's mutex. Leaf rank: taken with nothing else held or
    /// inside the meta writer guard.
    fn purge_queue(&self) -> GdbResult<Ranked<MutexGuard<'_, Vec<Eid>>>> {
        // gm-lock: leaf
        let t = lockorder::acquire(LockRank::Leaf, "gm-shard/topology.rs purge queue");
        self.pending_purges
            .lock()
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("purge queue"))
    }

    /// Defer a removed edge's resolution-map purge, draining at the cap.
    pub fn defer_purge(&self, e: Eid) -> GdbResult<()> {
        let depth = {
            // gm-lock: leaf
            let mut pending = self.purge_queue()?;
            pending.push(e);
            pending.len()
        };
        self.note_pending(depth);
        if depth >= PURGE_DRAIN_THRESHOLD {
            self.drain_purges()?;
        }
        Ok(())
    }

    /// Apply deferred purges. Cheap when the queue is empty (one
    /// uncontended mutex probe); the meta writer lock is taken only when
    /// there is work, and without the seqlock — resolution maps are
    /// setup-path state no pinned view's correctness depends on.
    pub fn drain_purges(&self) -> GdbResult<()> {
        // gm-lock: leaf transient
        if self.purge_queue()?.is_empty() {
            return Ok(());
        }
        // gm-lock: meta
        let mut meta = self.write()?;
        // gm-lock: leaf
        for e in self.purge_queue()?.drain(..) {
            meta.purge_edge(e);
        }
        self.note_pending(0);
        Ok(())
    }

    /// Forget every queued purge: after a bulk load (under its topology
    /// guard) they name edges of the graph it replaced.
    pub fn discard_purges(&self) -> GdbResult<()> {
        // gm-lock: leaf
        self.purge_queue()?.clear();
        self.note_pending(0);
        Ok(())
    }

    /// Current depth of the deferred purge queue (diagnostics and tests;
    /// the `shard.pending_purges` gauge mirrors it under `GM_OBS`).
    pub fn pending_purge_depth(&self) -> usize {
        self.purge_queue().map(|q| q.len()).unwrap_or(0)
    }

    fn note_pending(&self, len: usize) {
        if let Some(m) = &self.metrics {
            m.pending_purges.set(len as i64);
        }
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
