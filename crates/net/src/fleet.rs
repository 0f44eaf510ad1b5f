//! The fleet coordinator: a sharded composite whose shards are **separate
//! server processes**.
//!
//! [`Fleet`] drives N `gm-server` processes (each announcing a shard
//! identity in its `HelloAck`) exactly the way `gm-shard`'s `ShardedGraph`
//! drives N in-process engines: vertices are hash-placed by
//! `route::shard_of_canonical`, every edge lives on its source's shard with
//! cut destinations ghosted, single-shard ops route to one socket, and
//! whole-graph scans / `in()` gathers scatter-gather across sockets with
//! the same ghost-corrected merge ([`Parts`]) the in-process composite
//! uses. The routing [`Meta`] lives client-side under the coordinator's
//! meta lock; the servers only ever see shard-local ids.
//!
//! ## Batched, pipelined dispatch
//!
//! A per-worker [`FleetCell`] queues single-shard writes client-side and
//! ships them as one `ExecBatch` frame — either when the queue reaches the
//! batch cap (`GM_FLEET_BATCH`, default 16) or lazily, the moment a read
//! touches that shard (flush-on-touch). Reads therefore always observe the
//! session's own earlier writes, while a write-heavy mix pays **fewer wire
//! round trips than it executes ops** — the frame counter shared by every
//! fleet connection proves it.
//!
//! Two deferrals make that possible, both invisible to the workload:
//!
//! * `add_vertex` returns a placeholder id (the driver's `apply_write`
//!   discards it) so the round trip can be batched;
//! * `add_edge` returns a **deferred edge id** — a tagged placeholder the
//!   flush later binds to the server-assigned composite id. The only ops
//!   that feed edge ids back in (`RemoveOwnEdge`, edge property writes)
//!   resolve the tag first, flushing the owning cell if needed.
//!
//! ## Replay equality
//!
//! A sequential fleet run replays the in-process `ShardedGraph` run
//! op-for-op: the partition, placement counter, ghost discipline, and
//! deferred resolution-map purges all mirror `gm-shard`, and the
//! flush-before-any-observation rule keeps each shard's mutation order
//! identical to the sequential op order — so servers assign the same local
//! ids and every read returns the same cardinality. The fig10 `@fleet`
//! smoke gates on exactly this.

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{lockwait, Dataset, Eid, GdbError, GdbResult, Props, QueryCtx, Value, Vid};
use gm_obs::{Counter, Phase};
use gm_shard::route::{
    decode_eid, decode_vid, encode_eid, encode_vid, partition, Meta, Partitioned, GHOST_LABEL,
};
use gm_shard::Parts;
use gm_workload::{
    apply_write, run_backend, run_backend_sequential, Backend, Op, OpResult, RunReport, Session,
    WorkloadConfig, WORKLOAD_SLOTS,
};

use crate::client::{Connection, RemoteEngine};
use crate::proto::{Request, Response};

/// Isolation label reported by fleet runs.
pub const FLEET: &str = "fleet";

/// Default client-side write-batch cap (override with `GM_FLEET_BATCH`).
const DEFAULT_BATCH_CAP: usize = 16;

/// Requests per `ExecBatch` frame on the setup path (bulk meta resolution).
const SETUP_CHUNK: usize = 8192;

/// Purge-queue depth at which a deferred resolution-map purge drains
/// eagerly (mirrors `gm-shard`'s threshold).
const PURGE_DRAIN_THRESHOLD: usize = 1024;

/// High bit marking a deferred (not yet server-assigned) edge id. Real
/// composite edge ids are `local * N + shard`; reaching bit 63 would take
/// ~2^60 edges per shard, far beyond anything the harness can hold.
const DEFERRED_BIT: u64 = 1 << 63;
/// Shard index field of a deferred edge id (15 bits at 48).
const DEFERRED_SHARD_SHIFT: u32 = 48;
const DEFERRED_SHARD_MASK: u64 = (1 << 15) - 1;
/// Tag field of a deferred edge id (low 48 bits).
const DEFERRED_TAG_MASK: u64 = (1 << 48) - 1;

fn deferred_eid(shard: usize, tag: u64) -> Eid {
    Eid(DEFERRED_BIT
        | ((shard as u64 & DEFERRED_SHARD_MASK) << DEFERRED_SHARD_SHIFT)
        | (tag & DEFERRED_TAG_MASK))
}

fn split_deferred(e: Eid) -> Option<(usize, u64)> {
    if e.0 & DEFERRED_BIT == 0 {
        return None;
    }
    Some((
        ((e.0 >> DEFERRED_SHARD_SHIFT) & DEFERRED_SHARD_MASK) as usize,
        e.0 & DEFERRED_TAG_MASK,
    ))
}

fn poisoned(what: &str) -> GdbError {
    GdbError::Poisoned(format!("fleet {what} poisoned"))
}

/// Per-shard fleet counters, registered only under `GM_OBS=counters`+.
struct FleetMetrics {
    /// `fleet.shard.ops.{i}`: ops routed to each shard (writes queued plus
    /// read primitives touching the shard).
    shard_ops: Vec<Counter>,
    /// `fleet.batched_ops`: ops shipped inside `ExecBatch` frames.
    batched_ops: Counter,
    /// `fleet.routing_errors`: identity mismatches, transport failures, and
    /// batch entries the servers rejected.
    routing_errors: Counter,
    /// `fleet.ghost_creations`: cross-process ghost vertices materialized.
    ghost_creations: Counter,
}

impl FleetMetrics {
    fn new(shards: usize) -> Option<FleetMetrics> {
        if !gm_obs::counters_on() {
            return None;
        }
        let g = gm_obs::global();
        Some(FleetMetrics {
            shard_ops: (0..shards)
                .map(|s| g.counter(&format!("fleet.shard.ops.{s}")))
                .collect(),
            batched_ops: g.counter("fleet.batched_ops"),
            routing_errors: g.counter("fleet.routing_errors"),
            ghost_creations: g.counter("fleet.ghost_creations"),
        })
    }

    fn note_op(&self, s: usize) {
        if let Some(c) = self.shard_ops.get(s) {
            c.inc();
        }
    }
}

/// A fleet of shard servers behind one composite-graph facade.
///
/// Shared state mirrors `ShardedGraph` field-for-field: the routing meta
/// behind a rank-tracked `RwLock`, the round-robin placement counter, and
/// the deferred purge queue. The per-connection state (write queues,
/// deferred-id bindings) lives in per-worker [`FleetCell`]s instead, so
/// sessions never contend on a socket.
pub struct Fleet {
    name: String,
    addrs: Vec<String>,
    shards: usize,
    /// One control connection per shard: setup (load, meta resolution),
    /// parameter resolution, and epoch probes.
    control: Vec<RemoteEngine>,
    meta: RwLock<Meta>,
    /// Round-robin placement counter for dynamically added vertices
    /// (same discipline as `ShardedGraph::spread`).
    spread: AtomicU64,
    /// Deferred-edge-id tag allocator (unique across sessions).
    tag_seq: AtomicU64,
    /// Composite edge ids removed but not yet purged from the canonical
    /// resolution maps (drained under the meta writer lock, exactly like
    /// `ShardedGraph::pending_purges`).
    pending_purges: Mutex<Vec<Eid>>,
    /// Frames sent across **every** fleet connection (control and worker):
    /// the wire-round-trip evidence for the batched-dispatch gate.
    round_trips: Arc<AtomicU64>,
    routing_errors: AtomicU64,
    /// Ops that crossed the wire inside `ExecBatch` frames.
    batched_ops: AtomicU64,
    batch_cap: usize,
    metrics: Option<FleetMetrics>,
}

impl Fleet {
    /// Dial every shard server and verify its announced identity matches
    /// its position: `addrs[i]` must report shard `i` of `addrs.len()`.
    pub fn connect(addrs: Vec<String>) -> GdbResult<Fleet> {
        if addrs.is_empty() {
            return Err(GdbError::Invalid(
                "fleet: need at least one server address".into(),
            ));
        }
        let shards = addrs.len();
        let batch_cap = std::env::var("GM_FLEET_BATCH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|c| *c >= 1)
            .unwrap_or(DEFAULT_BATCH_CAP);
        let mut fleet = Fleet {
            name: String::new(),
            addrs,
            shards,
            control: Vec::new(),
            meta: RwLock::new(Meta::new(shards)),
            spread: AtomicU64::new(0),
            tag_seq: AtomicU64::new(0),
            pending_purges: Mutex::new(Vec::new()),
            round_trips: Arc::new(AtomicU64::new(0)),
            routing_errors: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            batch_cap,
            metrics: FleetMetrics::new(shards),
        };
        let control: Vec<RemoteEngine> = (0..shards)
            .map(|s| fleet.dial(s).map(RemoteEngine::from_connection))
            .collect::<GdbResult<_>>()?;
        let inner = control.first().map(|c| c.name()).unwrap_or_default();
        fleet.name = format!("{inner}/f{shards}");
        fleet.control = control;
        Ok(fleet)
    }

    /// Composite display name (`"{engine}/f{N}"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shard servers.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Frames sent across every fleet connection so far. Snapshot before
    /// and after a run: the delta is the run's wire round trips, which
    /// batched dispatch keeps **below** the op count on write-heavy mixes.
    pub fn round_trips(&self) -> u64 {
        // gm-check: relaxed(monotone event count, no ordering relied upon)
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Routing errors observed: identity mismatches, transport failures,
    /// and server-rejected batch entries. A healthy run reports zero.
    pub fn routing_errors(&self) -> u64 {
        // gm-check: relaxed(monotone event count, no ordering relied upon)
        self.routing_errors.load(Ordering::Relaxed)
    }

    /// Ops that crossed the wire inside `ExecBatch` frames.
    pub fn batched_ops(&self) -> u64 {
        // gm-check: relaxed(monotone event count, no ordering relied upon)
        self.batched_ops.load(Ordering::Relaxed)
    }

    /// Fleet-wide serving epoch: the **minimum** over the shards' epochs —
    /// the newest graph version every shard has published. Monotone because
    /// each shard's epochs are (same argument as `ShardedView`); locked
    /// hosting reports 0 everywhere.
    pub fn epoch(&self) -> GdbResult<u64> {
        if self.control.is_empty() {
            return Ok(0);
        }
        let mut min = u64::MAX;
        for eng in &self.control {
            let e = eng
                .connection()
                .lock()
                .map_err(|_| poisoned("control connection mutex"))?
                .epoch()?;
            min = min.min(e);
        }
        Ok(min)
    }

    /// Reset every shard, scatter the partitioned dataset (one pipelined
    /// load batch per server, all in flight at once), build the routing
    /// meta via batched resolution probes, and resolve the workload
    /// parameters against the composite — the fleet analogue of
    /// `prepare_sharded`, entirely outside the measured region.
    pub fn setup(&self, data: &Dataset, cfg: &WorkloadConfig) -> GdbResult<ResolvedParams> {
        let parts = partition(data, self.shards)?;
        self.load_partitioned(&parts)?;
        let meta = self.build_meta_batched(&parts)?;
        {
            // gm-lock: meta
            let mut guard = self.meta_write()?;
            *guard = meta;
        }
        // A fresh load is a fresh composite: restart the placement counter
        // and forget stale deferred state, so repeated setups replay
        // identically to a newly constructed `ShardedGraph`.
        // gm-check: relaxed(setup path, single-threaded; counters restart from zero)
        self.spread.store(0, Ordering::Relaxed);
        // gm-check: relaxed(setup path, single-threaded; counters restart from zero)
        self.tag_seq.store(0, Ordering::Relaxed);
        self.purge_lock()?.clear();
        let view = self.control_view();
        let workload = Workload::choose(data, cfg.seed, WORKLOAD_SLOTS);
        workload.resolve(&view)
    }

    /// Open one fresh identity-verified connection per shard — a worker
    /// session's private sockets (its write queues must not interleave
    /// with another session's).
    pub(crate) fn open_cells(&self) -> GdbResult<Vec<FleetCell<'_>>> {
        (0..self.shards)
            .map(|s| {
                Ok(FleetCell {
                    fleet: self,
                    shard: s,
                    engine: RemoteEngine::from_connection(self.dial(s)?),
                    state: Mutex::new(CellState::default()),
                })
            })
            .collect()
    }

    fn dial(&self, s: usize) -> GdbResult<Connection> {
        let addr = self
            .addrs
            .get(s)
            .ok_or_else(|| GdbError::Invalid(format!("fleet: no address for shard {s}")))?;
        let mut conn = Connection::connect(addr)?;
        let expect = (s as u32, self.shards as u32);
        match conn.shard_identity() {
            Some(id) if id == expect => {}
            got => {
                self.note_routing_error();
                return Err(GdbError::Invalid(format!(
                    "fleet: server at {addr} reports shard identity {got:?}, expected \
                     {expect:?} — check --shard-id/--fleet-size and the address order"
                )));
            }
        }
        conn.count_frames_into(Arc::clone(&self.round_trips));
        Ok(conn)
    }

    /// Scatter the sub-datasets: lock every control connection, write every
    /// shard's `[Reset, BulkLoad, Sync]` batch, then collect the replies —
    /// N loads proceed server-side concurrently on one client thread.
    fn load_partitioned(&self, parts: &Partitioned) -> GdbResult<()> {
        let mut conns: Vec<MutexGuard<'_, Connection>> = Vec::with_capacity(self.shards);
        for eng in &self.control {
            conns.push(
                eng.connection()
                    .lock()
                    .map_err(|_| poisoned("control connection mutex"))?,
            );
        }
        for (conn, sub) in conns.iter_mut().zip(&parts.subs) {
            conn.send(&Request::ExecBatch(vec![
                Request::Reset,
                Request::BulkLoad {
                    opts: LoadOptions::default(),
                    data: sub.clone(),
                },
                Request::Sync,
            ]))?;
        }
        for conn in conns.iter_mut() {
            for rsp in conn.recv()?.into_batch_done()? {
                if let Response::Err(e) = rsp {
                    self.note_routing_error();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// `route::build_meta` over the wire: the same bookkeeping resolution,
    /// but each shard's probes ship as chunked `ExecBatch` frames instead
    /// of one round trip per id.
    fn build_meta_batched(&self, parts: &Partitioned) -> GdbResult<Meta> {
        let shards = self.shards;
        let corrupt = |what: String| GdbError::Corrupt(format!("fleet load: {what}"));
        let mut meta = Meta::new(shards);
        fn shard_bucket(
            probes: &mut [Vec<(u64, u64)>],
            s: usize,
        ) -> GdbResult<&mut Vec<(u64, u64)>> {
            probes.get_mut(s).ok_or_else(|| {
                GdbError::Corrupt(format!("fleet load: partition names unknown shard {s}"))
            })
        }
        // Vertices: (global canonical, shard-local canonical), per shard.
        let mut v_probes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        for (canonical, (s, local_canonical)) in parts.vertex_loc.iter().enumerate() {
            shard_bucket(&mut v_probes, *s)?.push((canonical as u64, *local_canonical));
        }
        for (s, probes) in v_probes.into_iter().enumerate() {
            let reqs = probes
                .iter()
                .map(|(_, lc)| Request::ResolveVertex(*lc))
                .collect();
            let locals = self.resolve_on(s, reqs)?;
            for ((global, local_canonical), local) in probes.into_iter().zip(locals) {
                let local = local.ok_or_else(|| {
                    corrupt(format!("shard {s} lost loaded vertex {local_canonical}"))
                })?;
                let composite = encode_vid(Vid(local), s, shards).0;
                meta.vertex_resolve.insert(global, composite);
                meta.vertex_canon.insert(composite, global);
            }
        }
        // Ghosts: (shadowed global canonical, shard-local canonical).
        let mut g_probes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        for (s, shadowed, local_canonical) in &parts.ghosts {
            shard_bucket(&mut g_probes, *s)?.push((*shadowed, *local_canonical));
        }
        for (s, probes) in g_probes.into_iter().enumerate() {
            let reqs = probes
                .iter()
                .map(|(_, lc)| Request::ResolveVertex(*lc))
                .collect();
            let locals = self.resolve_on(s, reqs)?;
            for ((shadowed, local_canonical), local) in probes.into_iter().zip(locals) {
                let local = Vid(local.ok_or_else(|| {
                    corrupt(format!("shard {s} lost ghost vertex {local_canonical}"))
                })?);
                let composite = *meta
                    .vertex_resolve
                    .get(&shadowed)
                    .ok_or_else(|| corrupt(format!("ghost shadows unknown vertex {shadowed}")))?;
                meta.ghosts
                    .get_mut(s)
                    .ok_or_else(|| corrupt(format!("no ghost map for shard {s}")))?
                    .insert(composite, local);
                meta.rev
                    .get_mut(s)
                    .ok_or_else(|| corrupt(format!("no reverse map for shard {s}")))?
                    .insert(local.0, composite);
            }
        }
        // Edges: (global canonical, shard-local canonical).
        let mut e_probes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        for (canonical, (s, local_canonical)) in parts.edge_loc.iter().enumerate() {
            shard_bucket(&mut e_probes, *s)?.push((canonical as u64, *local_canonical));
        }
        for (s, probes) in e_probes.into_iter().enumerate() {
            let reqs = probes
                .iter()
                .map(|(_, lc)| Request::ResolveEdge(*lc))
                .collect();
            let locals = self.resolve_on(s, reqs)?;
            for ((global, local_canonical), local) in probes.into_iter().zip(locals) {
                let local = local.ok_or_else(|| {
                    corrupt(format!("shard {s} lost loaded edge {local_canonical}"))
                })?;
                let composite = encode_eid(Eid(local), s, shards).0;
                meta.edge_resolve.insert(global, composite);
                meta.edge_canon.insert(composite, global);
            }
        }
        Ok(meta)
    }

    /// Ship resolution probes to shard `s` in `SETUP_CHUNK`-sized batches;
    /// answers come back in request order.
    fn resolve_on(&self, s: usize, reqs: Vec<Request>) -> GdbResult<Vec<Option<u64>>> {
        let eng = self
            .control
            .get(s)
            .ok_or_else(|| GdbError::Invalid(format!("fleet: no control connection {s}")))?;
        let mut conn = eng
            .connection()
            .lock()
            .map_err(|_| poisoned("control connection mutex"))?;
        let mut out = Vec::with_capacity(reqs.len());
        let mut iter = reqs.into_iter();
        loop {
            let chunk: Vec<Request> = iter.by_ref().take(SETUP_CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            for rsp in conn.call_batch(chunk)? {
                out.push(rsp.into_opt_u64()?);
            }
        }
        Ok(out)
    }

    /// The composite read view over the control connections (setup-path
    /// parameter resolution; no write queues involved).
    fn control_view(&self) -> FleetView<'_> {
        FleetView {
            fleet: self,
            cells: self
                .control
                .iter()
                .map(|c| c as &dyn GraphSnapshot)
                .collect(),
        }
    }

    // ----- lock plumbing (mirrors ShardedGraph) ---------------------------

    fn meta_read(&self) -> GdbResult<Ranked<RwLockReadGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-net/fleet.rs meta read");
        lockwait::timed(|| self.meta.read())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta read lock"))
    }

    fn meta_write(&self) -> GdbResult<Ranked<RwLockWriteGuard<'_, Meta>>> {
        // gm-lock: meta
        let t = lockorder::acquire(LockRank::Meta, "gm-net/fleet.rs meta write");
        lockwait::timed(|| self.meta.write())
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("meta write lock"))
    }

    fn purge_lock(&self) -> GdbResult<Ranked<MutexGuard<'_, Vec<Eid>>>> {
        // gm-lock: leaf
        let t = lockorder::acquire(LockRank::Leaf, "gm-net/fleet.rs purge queue");
        self.pending_purges
            .lock()
            .map(|g| Ranked::new(g, t))
            .map_err(|_| poisoned("purge queue"))
    }

    /// Defer a removed edge's resolution-map purge (mirrors
    /// `ShardedGraph::sh_remove_edge`'s queue + depth cap).
    fn defer_purge(&self, e: Eid) -> GdbResult<()> {
        let depth = {
            // gm-lock: leaf
            let mut q = self.purge_lock()?;
            q.push(e);
            q.len()
        };
        if depth >= PURGE_DRAIN_THRESHOLD {
            self.drain_purges()?;
        }
        Ok(())
    }

    /// Apply deferred purges, taking the meta writer lock only when the
    /// queue is non-empty.
    fn drain_purges(&self) -> GdbResult<()> {
        {
            // gm-lock: leaf transient
            let q = self.purge_lock()?;
            if q.is_empty() {
                return Ok(());
            }
        }
        // gm-lock: meta
        let mut meta = self.meta_write()?;
        self.drain_purges_into(&mut meta)
    }

    /// Apply deferred purges into an already-held meta writer guard.
    fn drain_purges_into(&self, meta: &mut Meta) -> GdbResult<()> {
        // gm-lock: leaf
        let mut q = self.purge_lock()?;
        for e in q.drain(..) {
            meta.purge_edge(e);
        }
        Ok(())
    }

    fn note_routing_error(&self) {
        // gm-check: relaxed(pure event count, no ordering relied upon)
        self.routing_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.routing_errors.inc();
        }
    }

    /// Materialize a ghost for composite vertex `dst` on shard `s` —
    /// the cross-process mirror of `sh_add_edge`'s slow path. Validates
    /// the remote endpoint first (owner-shard read, finished before the
    /// meta writer lock), re-checks under the writer lock (another session
    /// may have won the race), and flushes the source cell before the
    /// direct `AddVertex` so the server assigns local ids in op order.
    fn create_ghost(
        &self,
        cells: &[FleetCell<'_>],
        s: usize,
        dst: Vid,
        local_dst_owner: Vid,
        dst_shard: usize,
    ) -> GdbResult<Vid> {
        {
            let owner = cell_of(cells, dst_shard)?;
            if owner.vertex(local_dst_owner)?.is_none() {
                return Err(GdbError::VertexNotFound(dst.0));
            }
        }
        // gm-lock: meta
        let mut meta = self.meta_write()?;
        // Opportunistic purge drain, as in the in-process composite: this
        // is the only write path taking the meta writer lock mid-run.
        self.drain_purges_into(&mut meta)?;
        if let Some(g) = meta.ghosts.get(s).and_then(|m| m.get(&dst.0)).copied() {
            return Ok(g); // raced another session: reuse its ghost
        }
        let cell = cell_of(cells, s)?;
        cell.flush()?;
        let ghost = cell
            .call(&Request::AddVertex {
                label: GHOST_LABEL.to_string(),
                props: Vec::new(),
            })?
            .into_u64()
            .map(Vid)?;
        meta.ghosts
            .get_mut(s)
            .ok_or_else(|| GdbError::Corrupt(format!("fleet: no ghost map for shard {s}")))?
            .insert(dst.0, ghost);
        meta.rev
            .get_mut(s)
            .ok_or_else(|| GdbError::Corrupt(format!("fleet: no reverse map for shard {s}")))?
            .insert(ghost.0, dst.0);
        if let Some(m) = &self.metrics {
            m.ghost_creations.inc();
        }
        Ok(ghost)
    }
}

fn cell_of<'c, 'a>(cells: &'c [FleetCell<'a>], s: usize) -> GdbResult<&'c FleetCell<'a>> {
    cells
        .get(s)
        .ok_or_else(|| GdbError::Corrupt(format!("fleet: op routed to unknown shard {s}")))
}

/// Per-session client-side state of one shard connection.
#[derive(Default)]
struct CellState {
    /// Queued single-shard writes, in op order.
    queue: Vec<Request>,
    /// Positions in `queue` holding a deferred-id `AddEdge`, with the tag
    /// each position answers.
    tags: Vec<(usize, u64)>,
    /// Deferred tag → server-assigned composite edge id (bound at flush,
    /// consumed by the first op that feeds the id back in).
    resolved: FxHashMap<u64, Eid>,
}

/// One worker session's endpoint for one shard: a private connection plus
/// the client-side write queue. Implements [`GraphSnapshot`] so it can
/// stand in [`Parts`]' shard slot — every read primitive **flushes the
/// queue first** (flush-on-touch), so a session always observes its own
/// earlier writes, while untouched shards keep batching.
///
/// The state sits behind a `Mutex` only because `GraphSnapshot` requires
/// `Sync`; a cell is never actually shared across threads, so the lock is
/// uncontended.
pub(crate) struct FleetCell<'a> {
    fleet: &'a Fleet,
    shard: usize,
    engine: RemoteEngine,
    state: Mutex<CellState>,
}

impl FleetCell<'_> {
    fn state(&self) -> GdbResult<MutexGuard<'_, CellState>> {
        self.state.lock().map_err(|_| poisoned("cell state mutex"))
    }

    fn conn(&self) -> GdbResult<MutexGuard<'_, Connection>> {
        self.engine
            .connection()
            .lock()
            .map_err(|_| poisoned("cell connection mutex"))
    }

    /// One direct round trip (caller has flushed if ordering matters).
    fn call(&self, req: &Request) -> GdbResult<Response> {
        if let Some(m) = &self.fleet.metrics {
            m.note_op(self.shard);
        }
        match self.conn()?.call(req) {
            Ok(rsp) => Ok(rsp),
            Err(e) => {
                self.fleet.note_routing_error();
                Err(e)
            }
        }
    }

    /// Queue a single-shard write; ships the queue when it reaches the
    /// batch cap.
    fn queue_write(&self, req: Request, tag: Option<u64>) -> GdbResult<()> {
        let depth = {
            let mut st = self.state()?;
            if let Some(t) = tag {
                let at = st.queue.len();
                st.tags.push((at, t));
            }
            st.queue.push(req);
            st.queue.len()
        };
        if let Some(m) = &self.fleet.metrics {
            m.note_op(self.shard);
        }
        if depth >= self.fleet.batch_cap {
            self.flush()?;
        }
        Ok(())
    }

    /// Ship the queued writes as one `ExecBatch` frame and bind deferred
    /// edge ids from the responses. A server-rejected entry surfaces as
    /// this call's error — a queued write's op already reported success,
    /// so the failure lands on the op that forced the flush (and in the
    /// `fleet.routing_errors` counter, which healthy runs keep at zero).
    pub(crate) fn flush(&self) -> GdbResult<()> {
        let (reqs, tags) = {
            let mut st = self.state()?;
            if st.queue.is_empty() {
                return Ok(());
            }
            (mem::take(&mut st.queue), mem::take(&mut st.tags))
        };
        let count = reqs.len() as u64;
        let rsps = match self.conn()?.call_batch(reqs) {
            Ok(r) => r,
            Err(e) => {
                self.fleet.note_routing_error();
                return Err(e);
            }
        };
        // gm-check: relaxed(pure event count, no ordering relied upon)
        self.fleet.batched_ops.fetch_add(count, Ordering::Relaxed);
        if let Some(m) = &self.fleet.metrics {
            m.batched_ops.add(count);
        }
        let tag_at: FxHashMap<usize, u64> = tags.into_iter().collect();
        let mut st = self.state()?;
        for (at, rsp) in rsps.into_iter().enumerate() {
            match (tag_at.get(&at), rsp) {
                (_, Response::Err(e)) => {
                    self.fleet.note_routing_error();
                    return Err(e);
                }
                (Some(&tag), Response::U64(local)) => {
                    st.resolved
                        .insert(tag, encode_eid(Eid(local), self.shard, self.fleet.shards));
                }
                (Some(_), other) => {
                    self.fleet.note_routing_error();
                    return Err(other.mismatch("U64"));
                }
                (None, _) => {}
            }
        }
        Ok(())
    }

    /// Bind a deferred edge id to its server-assigned composite id,
    /// flushing this cell if the tag is still in flight. Consuming the
    /// binding keeps the map from growing over a long session.
    fn take_resolved(&self, tag: u64) -> GdbResult<Eid> {
        if let Some(e) = self.state()?.resolved.remove(&tag) {
            return Ok(e);
        }
        self.flush()?;
        self.state()?.resolved.remove(&tag).ok_or_else(|| {
            GdbError::Corrupt(format!(
                "fleet: deferred edge tag {tag} on shard {} never materialized",
                self.shard
            ))
        })
    }

    /// Flush-on-touch prelude for every read primitive.
    fn touch(&self) -> GdbResult<()> {
        if let Some(m) = &self.fleet.metrics {
            m.note_op(self.shard);
        }
        self.flush()
    }
}

impl GraphSnapshot for FleetCell<'_> {
    // gm-check: allow-default(epoch: fleet cells answer shard-local reads under locked hosting; the fleet-wide epoch is Fleet::epoch)

    fn name(&self) -> String {
        self.engine.name()
    }

    fn features(&self) -> EngineFeatures {
        let _ = self.touch();
        self.engine.features()
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.touch().ok()?;
        self.engine.resolve_vertex(canonical)
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.touch().ok()?;
        self.engine.resolve_edge(canonical)
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.touch()?;
        self.engine.vertex_count(ctx)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.touch()?;
        self.engine.edge_count(ctx)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.touch()?;
        self.engine.edge_label_set(ctx)
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.touch()?;
        self.engine.vertices_with_property(name, value, ctx)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        self.touch()?;
        self.engine.edges_with_property(name, value, ctx)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.touch()?;
        self.engine.edges_with_label(label, ctx)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.touch()?;
        self.engine.vertex(v)
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.touch()?;
        self.engine.edge(e)
    }

    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.touch()?;
        self.engine.neighbors(v, dir, label, ctx)
    }

    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        self.touch()?;
        self.engine.vertex_edges(v, dir, label, ctx)
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.touch()?;
        self.engine.vertex_degree(v, dir, ctx)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.touch()?;
        self.engine.vertex_edge_labels(v, dir, ctx)
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.touch()?;
        self.engine.degree_scan(dir, k, ctx)
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.touch()?;
        self.engine.distinct_neighbor_scan(dir, ctx)
    }

    fn scan_vertices<'b>(
        &'b self,
        ctx: &'b QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'b>> {
        self.touch()?;
        self.engine.scan_vertices(ctx)
    }

    fn scan_edges<'b>(
        &'b self,
        ctx: &'b QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'b>> {
        self.touch()?;
        self.engine.scan_edges(ctx)
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.touch()?;
        self.engine.vertex_property(v, name)
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.touch()?;
        self.engine.edge_property(e, name)
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        self.touch()?;
        self.engine.edge_endpoints(e)
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        self.touch()?;
        self.engine.edge_label(e)
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        self.touch()?;
        self.engine.vertex_label(v)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        if self.touch().is_err() {
            return false;
        }
        self.engine.has_vertex_index(prop)
    }

    fn space(&self) -> SpaceReport {
        if self.touch().is_err() {
            return SpaceReport::default();
        }
        self.engine.space()
    }
}

/// The composite read view a session's ops run against: [`Parts`] over the
/// session's cells with the fleet meta read-locked per primitive — the same
/// per-primitive isolation the locked in-process composite provides.
pub(crate) struct FleetView<'a> {
    fleet: &'a Fleet,
    cells: Vec<&'a dyn GraphSnapshot>,
}

impl FleetView<'_> {
    fn with_parts<R>(&self, f: impl FnOnce(&Parts<'_>) -> R) -> GdbResult<R> {
        // gm-lock: meta
        let meta = self.fleet.meta_read()?;
        let refs: Vec<Option<&dyn GraphSnapshot>> = self.cells.iter().map(|c| Some(*c)).collect();
        Ok(f(&Parts {
            name: &self.fleet.name,
            shards: &refs,
            meta: &meta,
        }))
    }
}

impl GraphSnapshot for FleetView<'_> {
    // gm-check: allow-default(epoch: locked fleet hosting is unversioned — reads observe whatever writes have landed; Fleet::epoch reports the fleet-wide minimum for monotonicity gates)

    fn name(&self) -> String {
        self.fleet.name.clone()
    }

    fn features(&self) -> EngineFeatures {
        self.with_parts(|p| p.features()).unwrap_or(EngineFeatures {
            name: self.fleet.name.clone(),
            system_type: "Fleet composite".into(),
            storage: "unavailable (poisoned meta lock)".into(),
            edge_traversal: "cross-process scatter-gather".into(),
            optimized_adapter: false,
            async_writes: false,
            attribute_indexes: false,
        })
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        // Deferred removal purges apply first, so a deleted element stops
        // resolving exactly as it does in-process.
        self.fleet.drain_purges().ok()?;
        self.with_parts(|p| p.resolve_vertex(canonical)).ok()?
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.fleet.drain_purges().ok()?;
        self.with_parts(|p| p.resolve_edge(canonical)).ok()?
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.with_parts(|p| p.vertex_count(ctx))?
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.with_parts(|p| p.edge_count(ctx))?
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.with_parts(|p| p.edge_label_set(ctx))?
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.with_parts(|p| p.vertices_with_property(name, value, ctx))?
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        self.with_parts(|p| p.edges_with_property(name, value, ctx))?
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.with_parts(|p| p.edges_with_label(label, ctx))?
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.with_parts(|p| p.vertex(v))?
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.with_parts(|p| p.edge(e))?
    }

    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        self.with_parts(|p| p.neighbors(v, dir, label, ctx))?
    }

    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        self.with_parts(|p| p.vertex_edges(v, dir, label, ctx))?
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.with_parts(|p| p.vertex_degree(v, dir, ctx))?
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.with_parts(|p| p.vertex_edge_labels(v, dir, ctx))?
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.with_parts(|p| p.degree_scan(dir, k, ctx))?
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.with_parts(|p| p.distinct_neighbor_scan(dir, ctx))?
    }

    fn scan_vertices<'b>(
        &'b self,
        ctx: &'b QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'b>> {
        let items = self.with_parts(|p| p.scan_vertices(ctx))??;
        Ok(Box::new(items.into_iter()))
    }

    fn scan_edges<'b>(
        &'b self,
        ctx: &'b QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'b>> {
        let items = self.with_parts(|p| p.scan_edges(ctx))??;
        Ok(Box::new(items.into_iter()))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.with_parts(|p| p.vertex_property(v, name))?
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.with_parts(|p| p.edge_property(e, name))?
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        self.with_parts(|p| p.edge_endpoints(e))?
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        self.with_parts(|p| p.edge_label(e))?
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        self.with_parts(|p| p.vertex_label(v))?
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.with_parts(|p| p.has_vertex_index(prop))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        self.with_parts(|p| p.space()).unwrap_or_default()
    }
}

fn fleet_view<'a>(fleet: &'a Fleet, cells: &'a [FleetCell<'a>]) -> FleetView<'a> {
    FleetView {
        fleet,
        cells: cells.iter().map(|c| c as &dyn GraphSnapshot).collect(),
    }
}

/// The mutation handle a fleet session's writes run through — the
/// cross-process mirror of `gm-shard`'s `SharedWriter`, with queueing:
/// single-shard writes enqueue on their cell (shipped by cap or
/// flush-on-touch), cut edges go through the fleet's ghost discipline.
struct FleetWriter<'a> {
    fleet: &'a Fleet,
    cells: &'a [FleetCell<'a>],
    view: FleetView<'a>,
}

impl FleetWriter<'_> {
    /// Bind a possibly-deferred edge id to its real composite id.
    fn resolve_eid(&self, e: Eid) -> GdbResult<Eid> {
        match split_deferred(e) {
            None => Ok(e),
            Some((s, tag)) => cell_of(self.cells, s)?.take_resolved(tag),
        }
    }
}

impl GraphSnapshot for FleetWriter<'_> {
    // Reads through the writer handle go through the full composite view —
    // complete by construction, including the bulk-scan overrides.
    gm_model::forward_graph_snapshot!(target = |s| &s.view);
}

impl GraphDb for FleetWriter<'_> {
    fn bulk_load(&mut self, _data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadStats> {
        Err(GdbError::Invalid(
            "fleet sessions load via Fleet::setup, not through a writer".into(),
        ))
    }

    fn add_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let n = self.fleet.shards;
        // gm-check: relaxed(round-robin placement counter: any interleaving is a valid placement)
        let s = (self.fleet.spread.fetch_add(1, Ordering::Relaxed) % n as u64) as usize;
        cell_of(self.cells, s)?.queue_write(
            Request::AddVertex {
                label: label.to_string(),
                props: props.clone(),
            },
            None,
        )?;
        // The driver's apply_write discards the id of a workload AddVertex,
        // so the batched round trip never needs to answer. The placeholder
        // is deliberately out of the composite id space.
        Ok(Vid(DEFERRED_BIT))
    }

    fn add_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        let n = self.fleet.shards;
        let (local_src, s) = decode_vid(src, n);
        let (local_dst_owner, dst_shard) = decode_vid(dst, n);
        let local_dst = if dst_shard == s {
            local_dst_owner
        } else {
            // Cut edge: ghost fast path first, creation on miss — the same
            // discipline (and lock order) as `sh_add_edge`.
            // gm-lock: meta transient
            let known = self
                .fleet
                .meta_read()?
                .ghosts
                .get(s)
                .and_then(|m| m.get(&dst.0))
                .copied();
            match known {
                Some(ghost) => ghost,
                None => self
                    .fleet
                    .create_ghost(self.cells, s, dst, local_dst_owner, dst_shard)?,
            }
        };
        // gm-check: relaxed(tag allocator: uniqueness is all that matters)
        let tag = self.fleet.tag_seq.fetch_add(1, Ordering::Relaxed);
        cell_of(self.cells, s)?.queue_write(
            Request::AddEdge {
                src: local_src.0,
                dst: local_dst.0,
                label: label.to_string(),
                props: props.clone(),
            },
            Some(tag),
        )?;
        Ok(deferred_eid(s, tag))
    }

    fn set_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let (local, owner) = decode_vid(v, self.fleet.shards);
        cell_of(self.cells, owner)?.queue_write(
            Request::SetVertexProp {
                v: local.0,
                name: name.to_string(),
                value,
            },
            None,
        )
    }

    fn set_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let e = self.resolve_eid(e)?;
        let (local, s) = decode_eid(e, self.fleet.shards);
        cell_of(self.cells, s)?.queue_write(
            Request::SetEdgeProp {
                e: local.0,
                name: name.to_string(),
                value,
            },
            None,
        )
    }

    fn remove_vertex(&mut self, _v: Vid) -> GdbResult<()> {
        // In-process this takes every shard's write guard at once; across
        // processes that would need a fleet-wide stop-the-world. No
        // workload mix issues it, so it stays unimplemented rather than
        // subtly non-atomic.
        Err(GdbError::Unsupported(
            "fleet writer: remove_vertex requires a cross-process stop-the-world".into(),
        ))
    }

    fn remove_edge(&mut self, e: Eid) -> GdbResult<()> {
        let e = self.resolve_eid(e)?;
        let (local, s) = decode_eid(e, self.fleet.shards);
        cell_of(self.cells, s)?.queue_write(Request::RemoveEdge(local.0), None)?;
        // Same deferral as in-process: the resolution-map purge rides the
        // queue until a meta writer (ghost creation) or the depth cap
        // drains it.
        self.fleet.defer_purge(e)
    }

    fn remove_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let (local, owner) = decode_vid(v, self.fleet.shards);
        let cell = cell_of(self.cells, owner)?;
        cell.flush()?; // the previous value answers: FIFO before reading
        let name = name.to_string();
        cell.call(&Request::RemoveVertexProp { v: local.0, name })?
            .into_opt_value()
    }

    fn remove_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let e = self.resolve_eid(e)?;
        let (local, s) = decode_eid(e, self.fleet.shards);
        let cell = cell_of(self.cells, s)?;
        cell.flush()?;
        let name = name.to_string();
        cell.call(&Request::RemoveEdgeProp { e: local.0, name })?
            .into_opt_value()
    }

    fn create_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        // Homogeneous shards, same as in-process: all or none support it.
        for cell in self.cells {
            cell.flush()?;
            let prop = prop.to_string();
            cell.call(&Request::CreateVertexIndex { prop })?
                .into_unit()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> GdbResult<()> {
        for cell in self.cells {
            cell.flush()?;
            cell.call(&Request::Sync)?.into_unit()?;
        }
        Ok(())
    }
}

/// Workload backend over a connected [`Fleet`]: each worker session dials
/// its own set of per-shard connections.
pub struct FleetBackend<'a> {
    fleet: &'a Fleet,
    params: &'a ResolvedParams,
    op_timeout: Duration,
}

impl<'a> FleetBackend<'a> {
    /// Wrap a connected, loaded, parameter-resolved fleet.
    pub fn new(fleet: &'a Fleet, params: &'a ResolvedParams, op_timeout: Duration) -> Self {
        FleetBackend {
            fleet,
            params,
            op_timeout,
        }
    }
}

impl Backend for FleetBackend<'_> {
    fn engine(&self) -> String {
        self.fleet.name.clone()
    }

    fn isolation(&self) -> String {
        FLEET.into()
    }

    fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        Ok(Box::new(FleetSession {
            fleet: self.fleet,
            params: self.params,
            op_timeout: self.op_timeout,
            cells: self.fleet.open_cells()?,
            owned_edges: Vec::new(),
        }))
    }
}

struct FleetSession<'a> {
    fleet: &'a Fleet,
    params: &'a ResolvedParams,
    op_timeout: Duration,
    cells: Vec<FleetCell<'a>>,
    owned_edges: Vec<Eid>,
}

impl Session for FleetSession<'_> {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        // Meta-lock acquisitions on this path report through the
        // thread-local accumulator; this worker owns its thread.
        lockwait::reset();
        let timing = gm_obs::phases_on();
        let t0 = timing.then(Instant::now);
        let card = match op {
            Op::Read(inst) => {
                let ctx = QueryCtx::with_timeout(self.op_timeout);
                let view = fleet_view(self.fleet, &self.cells);
                catalog::execute_read(&inst, &view, self.params, &ctx)?
            }
            Op::Write(wop) => {
                let mut writer = FleetWriter {
                    fleet: self.fleet,
                    cells: &self.cells,
                    view: fleet_view(self.fleet, &self.cells),
                };
                apply_write(
                    wop,
                    &mut writer,
                    self.params,
                    worker,
                    op_index,
                    &mut self.owned_edges,
                )?
            }
        };
        let mut out = OpResult::plain(card).with_lock_wait(lockwait::take());
        if let Some(t) = t0 {
            // Everything outside client-side lock waiting is wire work
            // (socket round trips plus frame codec) — the number the
            // in-process composite pays zero of.
            let wall = t.elapsed().as_nanos() as u64;
            let lock = out.lock_wait_nanos();
            out.phases.set(Phase::WireIo, wall.saturating_sub(lock));
        }
        Ok(out)
    }

    fn finish(&mut self) -> GdbResult<()> {
        // Every queued mutation lands inside the measured run.
        for cell in &self.cells {
            cell.flush()?;
        }
        Ok(())
    }
}

/// Load `data` into the fleet and drive the configured workload
/// concurrently over batched, pipelined per-worker connections — the
/// cross-process analogue of `run_sharded`.
pub fn run_fleet(fleet: &Fleet, data: &Dataset, cfg: &WorkloadConfig) -> GdbResult<RunReport> {
    let params = fleet.setup(data, cfg)?;
    let backend = FleetBackend::new(fleet, &params, cfg.op_timeout);
    run_backend(&backend, &data.name, cfg)
}

/// Sequential (single-threaded, closed-loop) replay of [`run_fleet`]'s op
/// sequences — the reference that must match the in-process
/// `run_sharded_sequential` trace op-for-op.
pub fn run_fleet_sequential(
    fleet: &Fleet,
    data: &Dataset,
    cfg: &WorkloadConfig,
) -> GdbResult<RunReport> {
    let params = fleet.setup(data, cfg)?;
    let backend = FleetBackend::new(fleet, &params, cfg.op_timeout);
    run_backend_sequential(&backend, &data.name, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_ids_round_trip() {
        for s in [0usize, 1, 3, 15] {
            for tag in [0u64, 1, 77, DEFERRED_TAG_MASK] {
                let e = deferred_eid(s, tag);
                assert_eq!(split_deferred(e), Some((s, tag)));
            }
        }
    }

    #[test]
    fn real_composite_ids_are_not_deferred() {
        for raw in [0u64, 1, 42, 1 << 40] {
            assert_eq!(split_deferred(Eid(raw)), None);
        }
        assert!(split_deferred(Eid(DEFERRED_BIT)).is_some());
    }
}
