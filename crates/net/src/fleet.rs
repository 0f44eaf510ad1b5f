//! The fleet coordinator: a sharded composite whose shards are **separate
//! server processes**.
//!
//! [`Fleet`] drives N `gm-server` processes (each announcing a shard
//! identity in its `HelloAck`) through the same routing core as the
//! in-process composites: `gm-shard`'s [`Router`] and composite read
//! surface over the fleet's [`Topology`], with `FleetPort` — one
//! pipelined connection per shard server — as the port. Placement, the
//! ghost discipline, ghost-corrected scatter-gather and canonical
//! resolution are therefore not *mirrored* here, they are the same code —
//! the load's routing meta included, built by `route::build_meta` from
//! chunked `ExecBatch` probes; the routing meta lives client-side under the
//! topology's meta lock and the servers only ever see shard-local ids.
//!
//! ## Batched, pipelined dispatch
//!
//! A per-worker `FleetCell` queues single-shard writes client-side, on
//! its connection, and ships them in one `ExecBatch` frame — either alone,
//! when the queue reaches the batch cap (`DEFAULT_BATCH_CAP`, 16) or a write
//! needs its answer now, or lazily, in the frame of the next read of that
//! shard (flush-on-touch: the read rides as the batch's last entry, the
//! server runs the entries in order, and the last answer is the read's).
//! Touching a shard therefore costs one round trip, queue included; reads
//! always observe the session's own earlier writes, untouched shards keep
//! batching, and a write-heavy mix pays **fewer wire round trips than it
//! executes ops** — the frame counter shared by every fleet connection
//! proves it.
//!
//! A queued write the server refuses fails the op whose frame carried it,
//! counted once in `fleet.routing_errors`: a flush reports it at once, a
//! read's frame when the op ends (an infallible read has no error channel).
//! A write whose answer is needed now (a ghost's `add_vertex`) never rides
//! along: the queue ships first, so it never runs behind a refused write.
//!
//! Two deferrals make that possible, both inside the port and invisible to
//! the workload:
//!
//! * a posted `add_vertex` answers a placeholder id (the driver's
//!   `apply_write` discards it) so the round trip can be batched; fed back
//!   into a write it is refused by name, nothing queued;
//! * a posted `add_edge` answers a **deferred edge id** — a tagged
//!   placeholder the frame that ships it later binds to the
//!   server-assigned composite id. The only ops that feed edge ids back
//!   in (`RemoveOwnEdge`, edge property writes) redeem the tag on entry,
//!   flushing the owning cell if needed.
//!
//! ## Replay equality
//!
//! A sequential fleet run replays the in-process `ShardedGraph` run
//! op-for-op: the routing is the same code over the same partition, and
//! shipping the queue ahead of (or with) any observation keeps each
//! shard's mutation order identical to the sequential op order — so
//! servers assign the same local ids and every read returns the same
//! cardinality. `tests/fleet.rs` and
//! `tests/fleet_proc.rs` gate on exactly this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::api::{Applied, GraphSnapshot, LoadOptions, Mutation};
use gm_model::{lockwait, Dataset, Eid, GdbError, GdbResult, QueryCtx, Vid};
use gm_obs::{Counter, Phase};
use gm_shard::route::{build_meta, encode_eid, partition, Meta, Partitioned, Probe};
use gm_shard::{Posted, Router, ShardPort, ShardSel, Topology};
use gm_workload::{apply_write, Backend, Op, OpResult, Session, WorkloadConfig, WORKLOAD_SLOTS};

use crate::client::{Connection, RemoteEngine};
use crate::proto::{Request, Response};

/// Isolation label reported by fleet runs.
pub const FLEET: &str = "fleet";

/// Client-side write-batch cap: queued single-shard writes per connection
/// before an `ExecBatch` frame ships.
const DEFAULT_BATCH_CAP: usize = 16;

/// Requests per `ExecBatch` frame on the setup path (bulk meta resolution).
const SETUP_CHUNK: usize = 8192;

/// High bit marking a deferred (not yet server-assigned) id. Real
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

/// Wire-dispatch counters, registered only under `GM_OBS=counters`+ (the
/// per-shard op balance and ghost creations are the topology's `shard.*`).
struct FleetMetrics {
    /// `fleet.batched_ops`: ops shipped inside `ExecBatch` frames.
    batched_ops: Counter,
    /// `fleet.routing_errors`: identity mismatches, transport failures, and
    /// batch entries the servers rejected.
    routing_errors: Counter,
}

impl FleetMetrics {
    fn new() -> Option<FleetMetrics> {
        if !gm_obs::counters_on() {
            return None;
        }
        let g = gm_obs::global();
        Some(FleetMetrics {
            batched_ops: g.counter("fleet.batched_ops"),
            routing_errors: g.counter("fleet.routing_errors"),
        })
    }
}

/// A fleet of shard servers behind one composite-graph facade.
///
/// Shared state is the composite's [`Topology`] (routing meta, placement
/// counter, load bounds) plus the wire counters. The per-connection state
/// (write queues, deferred-id bindings) lives in per-worker `FleetCell`s
/// instead, so sessions never contend on a socket.
pub struct Fleet {
    name: String,
    addrs: Vec<String>,
    shards: usize,
    /// One control connection per shard: setup (load, meta resolution),
    /// parameter resolution, and epoch probes.
    control: Vec<RemoteEngine>,
    topo: Topology,
    /// Deferred-edge-id tag allocator (unique across sessions).
    tag_seq: AtomicU64,
    /// Frames sent across **every** fleet connection (control and worker):
    /// the wire-round-trip evidence for the batched-dispatch gate.
    round_trips: Arc<AtomicU64>,
    routing_errors: AtomicU64,
    /// Ops that crossed the wire inside `ExecBatch` frames.
    batched_ops: AtomicU64,
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
        let mut fleet = Fleet {
            name: String::new(),
            addrs,
            shards,
            control: Vec::new(),
            topo: Topology::new(shards),
            tag_seq: AtomicU64::new(0),
            round_trips: Arc::new(AtomicU64::new(0)),
            routing_errors: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            metrics: FleetMetrics::new(),
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
    /// `gm_workload::prepare` over a sharded composite, entirely outside the
    /// measured region.
    pub fn setup(&self, data: &Dataset, cfg: &WorkloadConfig) -> GdbResult<ResolvedParams> {
        let parts = partition(data, self.shards)?;
        self.load_partitioned(&parts)?;
        let meta = build_meta(&parts, self.shards, |s, probe, locals| {
            self.resolve_on(s, probe, locals)
        })?;
        // A fresh load is a fresh composite: install the meta, restart the
        // placement counter and the tag allocator, so repeated setups
        // replay identically to a newly constructed `ShardedGraph`.
        // gm-lock: meta
        self.topo.install(&mut *self.topo.enter()?, meta);
        self.topo.restart_placement();
        // gm-check: relaxed(setup path, single-threaded; counters restart from zero)
        self.tag_seq.store(0, Ordering::Relaxed);
        // Parameter resolution reads over the control connections (no
        // write queues involved).
        let view = Router::over(&self.name, &self.topo, self.port(&[]));
        let workload = Workload::choose(data, cfg.seed, WORKLOAD_SLOTS);
        workload.resolve(&view)
    }

    fn port<'a>(&'a self, cells: &'a [FleetCell<'a>]) -> FleetPort<'a> {
        FleetPort { fleet: self, cells }
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
                    read: AtomicBool::new(false),
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

    /// Ship resolution probes to shard `s` in `SETUP_CHUNK`-sized batches;
    /// answers come back in request order.
    fn resolve_on(&self, s: usize, probe: Probe, locals: &[u64]) -> GdbResult<Vec<Option<u64>>> {
        let eng = self
            .control
            .get(s)
            .ok_or_else(|| GdbError::Invalid(format!("fleet: no control connection {s}")))?;
        let mut conn = eng
            .connection()
            .lock()
            .map_err(|_| poisoned("control connection mutex"))?;
        let mut out = Vec::with_capacity(locals.len());
        for chunk in locals.chunks(SETUP_CHUNK) {
            let reqs = chunk.iter().map(|&l| match probe {
                Probe::Vertex => Request::ResolveVertex(l),
                Probe::Edge => Request::ResolveEdge(l),
            });
            for rsp in conn.call_batch(reqs.collect())? {
                out.push(rsp.into_opt_u64()?);
            }
        }
        Ok(out)
    }

    fn note_routing_error(&self) {
        // gm-check: relaxed(pure event count, no ordering relied upon)
        self.routing_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.routing_errors.inc();
        }
    }
}

fn cell_of<'c, 'a>(cells: &'c [FleetCell<'a>], s: usize) -> GdbResult<&'c FleetCell<'a>> {
    cells
        .get(s)
        .ok_or_else(|| GdbError::Corrupt(format!("fleet: op routed to unknown shard {s}")))
}

/// One worker session's endpoint for one shard: a private connection whose
/// client-side write queue ships with the next read of this shard, in the
/// read's own frame, while untouched shards keep batching.
pub(crate) struct FleetCell<'a> {
    fleet: &'a Fleet,
    shard: usize,
    engine: RemoteEngine,
    /// Handed out as a read view since the op began: its queue may have
    /// ridden in a read's frame, so the op's end settles it.
    read: AtomicBool,
}

impl FleetCell<'_> {
    fn conn(&self) -> GdbResult<MutexGuard<'_, Connection>> {
        self.engine
            .connection()
            .lock()
            .map_err(|_| poisoned("cell connection mutex"))
    }

    /// One direct round trip (caller has flushed if ordering matters).
    fn call(&self, req: &Request) -> GdbResult<Response> {
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
        let mut conn = self.conn()?;
        if conn.queue(req, tag) < DEFAULT_BATCH_CAP {
            return Ok(());
        }
        conn.flush();
        self.settle(&mut conn)
    }

    /// Ship the queued writes on their own, as one `ExecBatch` frame.
    pub(crate) fn flush(&self) -> GdbResult<()> {
        let mut conn = self.conn()?;
        conn.flush();
        self.settle(&mut conn)
    }

    /// Account for the queued writes the connection shipped since the last
    /// settle, in a flush or in a read's frame. A refused one surfaces as
    /// this call's error — a queued write's op already reported success, so
    /// the failure lands on the op whose frame carried it (and once in the
    /// `fleet.routing_errors` counter, which healthy runs keep at zero).
    /// A flush settles at once; a read's frame settles when its op ends
    /// ([`settle_reads`]), since an infallible read has no error to return.
    fn settle(&self, conn: &mut Connection) -> GdbResult<()> {
        let (shipped, fault) = conn.settle();
        if shipped > 0 {
            // gm-check: relaxed(pure event count, no ordering relied upon)
            self.fleet.batched_ops.fetch_add(shipped, Ordering::Relaxed);
            if let Some(m) = &self.fleet.metrics {
                m.batched_ops.add(shipped);
            }
        }
        match fault {
            None => Ok(()),
            Some(e) => {
                self.fleet.note_routing_error();
                Err(e)
            }
        }
    }

    /// Bind a deferred edge id to its server-assigned composite id,
    /// flushing this cell if the tag is still queued.
    fn take_resolved(&self, tag: u64) -> GdbResult<Eid> {
        let mut conn = self.conn()?;
        let local = match conn.take_bound(tag) {
            Some(local) => local,
            None => {
                conn.flush();
                self.settle(&mut conn)?;
                conn.take_bound(tag).ok_or_else(|| {
                    GdbError::Corrupt(format!(
                        "fleet: deferred edge tag {tag} on shard {} never materialized",
                        self.shard
                    ))
                })?
            }
        };
        Ok(encode_eid(Eid(local), self.shard, self.fleet.shards))
    }
}

/// Settle the cells an op read at its end: the op fails with the first
/// queued write a server refused in one of its frames. Every such cell
/// settles, so each refusal is reported by exactly one op.
fn settle_reads(cells: &[FleetCell<'_>]) -> GdbResult<()> {
    let mut first = Ok(());
    // gm-check: relaxed(the flag names cells to settle; the settle itself locks the connection)
    for cell in cells.iter().filter(|c| c.read.load(Ordering::Relaxed)) {
        // gm-check: relaxed(only this session's thread sets or clears the flag)
        cell.read.store(false, Ordering::Relaxed);
        let settled = cell.conn().and_then(|mut conn| cell.settle(&mut conn));
        if first.is_ok() {
            first = settled;
        }
    }
    first
}

/// The [`ShardPort`] of a fleet session: shard `s` is reached through the
/// session's [`FleetCell`] — writes queue on it, and a read of it carries
/// the queue in its own frame. With no cells (the setup path) reads go over
/// the fleet's control connections and nothing is queued.
struct FleetPort<'a> {
    fleet: &'a Fleet,
    cells: &'a [FleetCell<'a>],
}

/// The wire frame of a single-shard write. Two mutations never reach a
/// shard server through a session.
fn frame(m: Mutation<'_>) -> GdbResult<Request> {
    match m {
        Mutation::BulkLoad(..) => Err(GdbError::Invalid(
            "fleet sessions load via Fleet::setup, not through a writer".into(),
        )),
        // In-process this runs under the topology guard, which excludes
        // every reader; across processes other sessions' queued writes
        // would need a fleet-wide stop-the-world. No workload mix issues
        // it, so it stays unimplemented rather than subtly non-atomic.
        Mutation::RemoveVertex(_) => Err(GdbError::Unsupported(
            "fleet writer: remove_vertex requires a cross-process stop-the-world".into(),
        )),
        m => Ok(Request::from(m)),
    }
}

impl ShardPort for FleetPort<'_> {
    fn with_views<R>(
        &self,
        need: &ShardSel,
        meta: Option<&Meta>,
        f: impl FnOnce(&[(usize, &dyn GraphSnapshot)]) -> R,
    ) -> GdbResult<R> {
        let mut views: Vec<(usize, &dyn GraphSnapshot)> = Vec::new();
        for s in need.shards(self.fleet.shards, meta) {
            let engine = match self.cells.get(s) {
                Some(cell) => {
                    // gm-check: relaxed(read back by this session's own thread at the op's end)
                    cell.read.store(true, Ordering::Relaxed);
                    &cell.engine
                }
                None => self.fleet.control.get(s).ok_or_else(|| {
                    GdbError::Invalid(format!("fleet: no control connection {s}"))
                })?,
            };
            views.push((s, engine));
        }
        Ok(f(&views))
    }

    /// The answer is needed now: the queue ships first, in its own frame,
    /// then one direct round trip (so the server assigns local ids in op
    /// order, and a write never runs behind a queued write the server
    /// refused).
    fn apply(&self, s: usize, m: Mutation<'_>) -> GdbResult<Applied> {
        let req = frame(m)?;
        let cell = cell_of(self.cells, s)?;
        cell.flush()?;
        cell.call(&req)?.into_applied()
    }

    /// Queue the write on its cell (shipped by cap or with the next read of
    /// the shard). A creation answers a placeholder: the driver's
    /// `apply_write` discards a workload vertex's id, so that round trip
    /// never needs to answer, and an edge's id is bound to its tag when its
    /// frame ships.
    fn post(&self, s: usize, m: Mutation<'_>) -> GdbResult<Posted> {
        let (tag, out) = match &m {
            Mutation::AddVertex(..) => (None, Posted::Deferred(DEFERRED_BIT)),
            Mutation::AddEdge(..) => {
                // gm-check: relaxed(tag allocator: uniqueness is all that matters)
                let tag = self.fleet.tag_seq.fetch_add(1, Ordering::Relaxed);
                (Some(tag), Posted::Deferred(deferred_eid(s, tag).0))
            }
            _ => (None, Posted::Applied(Applied::Done)),
        };
        cell_of(self.cells, s)?.queue_write(frame(m)?, tag)?;
        Ok(out)
    }

    /// A deferred vertex id names no vertex the fleet can address: refuse
    /// it where it enters, before anything is queued.
    fn admit_vid(&self, v: Vid) -> GdbResult<Vid> {
        if v.0 & DEFERRED_BIT != 0 {
            return Err(GdbError::Invalid(format!(
                "deferred vertex id {:#x}: a fleet session's add_vertex answers a \
                 placeholder, which cannot be fed back into a write",
                v.0
            )));
        }
        Ok(v)
    }

    /// Bind a possibly-deferred edge id to its real composite id.
    fn admit_eid(&self, e: Eid) -> GdbResult<Eid> {
        match split_deferred(e) {
            None => Ok(e),
            Some((s, tag)) => cell_of(self.cells, s)?.take_resolved(tag),
        }
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
        let mut router = Router::over(
            &self.fleet.name,
            &self.fleet.topo,
            self.fleet.port(&self.cells),
        );
        let card = match op {
            Op::Read(inst) => {
                let ctx = QueryCtx::with_timeout(self.op_timeout);
                catalog::execute_read(&inst, &router, self.params, &ctx)
            }
            Op::Write(wop) => apply_write(
                wop,
                &mut router,
                self.params,
                worker,
                op_index,
                &mut self.owned_edges,
            ),
        };
        // A queued write refused in this op's frames fails it, whatever
        // answered the read that carried the write.
        settle_reads(&self.cells)?;
        let card = card?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use gm_shard::route::encode_vid;

    #[test]
    fn deferred_ids_round_trip() {
        for s in [0usize, 1, 3, 15] {
            for tag in [0u64, 1, 77, DEFERRED_TAG_MASK] {
                let e = deferred_eid(s, tag);
                assert_eq!(split_deferred(e), Some((s, tag)));
            }
        }
    }

    /// Two linked(v2) shard servers behind a fleet set up over a 150-vertex
    /// chain.
    fn two_shard_fleet() -> (Vec<crate::ServerHandle>, Fleet, ResolvedParams) {
        use crate::Server;
        use gm_model::testkit;
        use graphmark::registry::EngineKind;

        let servers: Vec<_> = (0..2u32)
            .map(|s| {
                Server::bind("127.0.0.1:0", Box::new(|| EngineKind::LinkedV2.make()))
                    .expect("bind shard server")
                    .with_shard_identity(s, 2)
                    .spawn()
                    .expect("spawn shard server")
            })
            .collect();
        let fleet = Fleet::connect(servers.iter().map(|h| h.addr().to_string()).collect())
            .expect("connect fleet");
        let params = fleet
            .setup(&testkit::chain_dataset(150), &WorkloadConfig::default())
            .expect("setup");
        (servers, fleet, params)
    }

    /// A fleet `add_vertex` answers a placeholder. Fed back into a write it
    /// must be refused by name where it enters — not decoded to a garbage
    /// shard-local id, queued, and failed as `VertexNotFound` on whichever
    /// unrelated later op forces that cell's flush.
    #[test]
    fn deferred_vertex_ids_are_refused_on_entry() {
        use gm_model::api::GraphDb;
        use gm_model::Value;

        let (servers, fleet, params) = two_shard_fleet();
        let cells = fleet.open_cells().expect("cells");
        let mut router = Router::over(&fleet.name, &fleet.topo, fleet.port(&cells));

        let placeholder = router.add_vertex("v", &Vec::new()).expect("queued");
        let refused = [
            router
                .add_edge(placeholder, params.vertex, "e", &Vec::new())
                .map(drop),
            router
                .add_edge(params.vertex, placeholder, "e", &Vec::new())
                .map(drop),
            router.set_vertex_property(placeholder, "p", Value::Int(1)),
        ];
        for out in refused {
            match out {
                Err(GdbError::Invalid(why)) => {
                    assert!(why.contains("deferred vertex id"), "{why}")
                }
                other => panic!("a deferred vertex id must be refused, got {other:?}"),
            }
        }
        // Nothing was queued behind the placeholder: flushing ships the one
        // `add_vertex` and every server accepts its batch.
        let shipped = fleet.batched_ops();
        for cell in &cells {
            cell.flush().expect("flush");
        }
        assert_eq!(fleet.batched_ops() - shipped, 1, "only the add_vertex");
        assert_eq!(fleet.routing_errors(), 0, "no routing error counted");
        drop(cells);
        for h in servers {
            h.shutdown();
        }
    }

    /// A queued write the server refuses rides in the next read's frame and
    /// fails exactly that read's op — also when an infallible read carried
    /// it — counted once as a routing error; the connection stays clean,
    /// and an `apply` queued behind such a write never reaches the server.
    #[test]
    fn a_refused_queued_write_fails_the_op_that_carried_it() {
        use gm_core::catalog::{QueryId, QueryInstance};
        use gm_model::api::GraphDb;
        use gm_model::Value;
        use std::borrow::Cow;

        let (servers, fleet, params) = two_shard_fleet();
        let mut session = FleetSession {
            fleet: &fleet,
            params: &params,
            op_timeout: Duration::from_secs(5),
            cells: fleet.open_cells().expect("cells"),
            owned_edges: Vec::new(),
        };
        // A vertex id on the anchor's shard that names no vertex there.
        let s = params.vertex.0 as usize % 2;
        let missing = encode_vid(Vid(1 << 30), s, 2);
        let queue_refused = |cells: &[FleetCell<'_>]| {
            Router::over(&fleet.name, &fleet.topo, fleet.port(cells))
                .set_vertex_property(missing, "p", Value::Int(1))
                .expect("queued: the server has not answered yet")
        };
        let refused = |out: GdbResult<_>| matches!(out, Err(GdbError::VertexNotFound(_)));
        let point_read = Op::Read(QueryInstance::plain(QueryId::Q14));
        let errors = fleet.routing_errors();

        queue_refused(&session.cells);
        let trips = fleet.round_trips();
        assert!(refused(session.execute(point_read, 0, 1).map(drop)));
        assert_eq!(
            fleet.round_trips() - trips,
            1,
            "the write rode in the read's frame"
        );
        assert_eq!(fleet.routing_errors() - errors, 1, "counted once");

        let (trips, batched) = (fleet.round_trips(), fleet.batched_ops());
        let again = session
            .execute(point_read, 0, 2)
            .expect("the connection is usable");
        assert_eq!(again.cardinality, 1);
        assert_eq!(fleet.round_trips() - trips, 1, "a plain read frame");
        assert_eq!(fleet.batched_ops(), batched, "no stale entry shipped");
        assert_eq!(fleet.routing_errors() - errors, 1);

        // An infallible read has no error to return: the op's end reports it.
        queue_refused(&session.cells);
        let router = Router::over(&fleet.name, &fleet.topo, fleet.port(&session.cells));
        let _ = router.has_vertex_index("p");
        assert!(refused(settle_reads(&session.cells)));
        assert_eq!(fleet.routing_errors() - errors, 2);

        queue_refused(&session.cells);
        let ctx = QueryCtx::unbounded();
        let server_count = || fleet.control[s].vertex_count(&ctx).expect("vertex count");
        let before = server_count();
        let ghost = Mutation::AddVertex(Cow::Borrowed("ghost"), Cow::Owned(Vec::new()));
        assert!(refused(
            fleet.port(&session.cells).apply(s, ghost).map(drop)
        ));
        assert_eq!(server_count(), before, "the apply never ran");
        assert_eq!(fleet.routing_errors() - errors, 3);
        session.finish().expect("nothing left queued");

        drop(session);
        for h in servers {
            h.shutdown();
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
