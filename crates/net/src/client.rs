//! The remote-engine client.
//!
//! [`Connection`] is one framed socket with the handshake done.
//! [`RemoteEngine`] wraps a connection and implements
//! [`GraphDb`](gm_model::GraphDb), so it drops transparently into
//! `catalog::execute`, the sequential `Runner`, and anything else written
//! against the trait — every primitive call is one request/response round
//! trip, which is precisely the dispatch + serialization cost the paper's
//! client/server deployments pay and the in-process harness hides.
//!
//! For the workload driver, [`RemoteBackend`] opens **one connection per
//! worker** (like N benchmark clients against one server) and ships whole
//! driver ops as single [`Request::ExecOp`] frames, executed server-side
//! against parameters prepared by [`RemoteBackend::setup`] — one round
//! trip per op, the way real drivers execute Gremlin server-side.

use std::mem;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gm_obs::{trace, Phase, PhaseNanos, RegistrySnapshot, TraceRecord};

use gm_model::api::{
    Applied, Direction, EdgeData, EdgeRef, EngineFeatures, LoadOptions, Mutation, SpaceReport,
    VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::{Dataset, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx, Value, Vid};
use gm_workload::{Backend, Op, OpResult, Session, WorkloadConfig, WORKLOAD_SLOTS};

use crate::proto::{Request, Response, MAGIC, PROTO_VERSION};
use crate::wire::{FrameReader, FrameWriter};

/// How long a dial waits on the version handshake whatever deadline the
/// caller asked for: a peer that accepts the connection but never answers
/// `Hello` fails the dial with [`GdbError::Timeout`] instead of hanging it.
pub const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// One framed, handshaken connection to a gm-net server.
pub struct Connection {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    engine: String,
    /// Fleet identity from the handshake (`None` for standalone servers).
    shard: Option<(u32, u32)>,
    /// Optional shared frame counter: every frame [`Connection::send`]
    /// writes bumps it, which is how the fleet coordinator proves its
    /// batched dispatch issues fewer wire exchanges than ops.
    frames: Option<Arc<AtomicU64>>,
    /// Set by the first transport failure (a fired deadline, a reset, a
    /// torn or corrupt frame): the stream is then at an unknown offset —
    /// a late answer would be read as the next call's — so every later
    /// call fails fast instead of reusing it.
    broken: bool,
    /// Writes riding ahead of the next call. Only a fleet session queues;
    /// on every other connection this stays empty.
    queued: Queued,
}

/// Writes queued on a connection to ride ahead of its next call, and what
/// became of those already shipped.
#[derive(Default)]
struct Queued {
    /// The writes, in op order.
    writes: Vec<Request>,
    /// Positions in `writes` whose answer binds a deferred tag, ascending.
    tags: Vec<(usize, u64)>,
    /// Deferred tag → the id the server answered, until taken.
    bound: FxHashMap<u64, u64>,
    /// Writes shipped since the last [`Connection::settle`].
    shipped: u64,
    /// The first write refused since the last settle, or the transport
    /// failure that lost the writes.
    fault: Option<GdbError>,
}

/// Set the read and write deadline of `stream`'s socket (both halves).
fn set_deadline(stream: &TcpStream, addr: &str, deadline: Option<Duration>) -> GdbResult<()> {
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|e| GdbError::Io(format!("setting deadlines on {addr}: {e}")))
}

impl Connection {
    /// Dial `addr` and perform the version handshake.
    pub fn connect(addr: &str) -> GdbResult<Connection> {
        Self::dial(addr, None)
    }

    /// [`Connection::connect`] with a read and write `deadline` on the
    /// socket once the handshake is done: a server that stops answering
    /// fails the call with [`GdbError::Timeout`] instead of blocking it
    /// forever. The handshake itself runs under [`HANDSHAKE_DEADLINE`].
    fn dial(addr: &str, deadline: Option<Duration>) -> GdbResult<Connection> {
        let stream =
            TcpStream::connect(addr).map_err(|e| GdbError::Io(format!("dialing {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        set_deadline(&stream, addr, Some(HANDSHAKE_DEADLINE))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| GdbError::Io(format!("cloning the socket to {addr}: {e}")))?;
        let mut conn = Connection {
            reader: FrameReader::new(read_half),
            writer: FrameWriter::new(stream),
            engine: String::new(),
            shard: None,
            frames: None,
            broken: false,
            queued: Queued::default(),
        };
        conn.send(&Request::Hello {
            magic: MAGIC,
            version: PROTO_VERSION,
        })?;
        let (version, engine, shard) = conn.recv()?.into_hello_ack()?;
        if version != PROTO_VERSION {
            return Err(GdbError::Invalid(format!(
                "server speaks protocol version {version}, client speaks {PROTO_VERSION}"
            )));
        }
        set_deadline(conn.writer.get_ref(), addr, deadline)?;
        conn.engine = engine;
        conn.shard = shard;
        Ok(conn)
    }

    /// The hosted engine's display name (from the handshake).
    pub fn engine_name(&self) -> &str {
        &self.engine
    }

    /// The server's fleet identity `(shard_id, fleet_size)` from the
    /// handshake, `None` for standalone servers.
    pub fn shard_identity(&self) -> Option<(u32, u32)> {
        self.shard
    }

    /// Count every frame this connection sends into `ctr` (shared with the
    /// other connections of a fleet, typically).
    pub fn count_frames_into(&mut self, ctr: Arc<AtomicU64>) {
        self.frames = Some(ctr);
    }

    /// Send one request without waiting for its response (pipelining).
    pub fn send(&mut self, req: &Request) -> GdbResult<()> {
        self.send_with(|out| req.encode_into(out))
    }

    /// Receive the next response in order.
    pub fn recv(&mut self) -> GdbResult<Response> {
        self.recv_with(Response::decode)
    }

    /// The connection's one send path: `encode` appends the payload to the
    /// connection's frame buffer, which leaves in one write.
    fn send_with(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> GdbResult<()>) -> GdbResult<()> {
        self.usable()?;
        if let Some(ctr) = &self.frames {
            // gm-check: relaxed(pure event count, no ordering relied upon)
            ctr.fetch_add(1, Ordering::Relaxed);
        }
        let sent = self.writer.send(encode);
        self.note(sent)
    }

    /// The connection's one receive path: `decode` reads the next payload
    /// in place.
    fn recv_with<T>(&mut self, decode: impl FnOnce(&[u8]) -> GdbResult<T>) -> GdbResult<T> {
        self.usable()?;
        let got = self.reader.recv(decode);
        self.note(got)
    }

    fn usable(&self) -> GdbResult<()> {
        if self.broken {
            return Err(GdbError::Io(
                "connection abandoned after an earlier transport failure".into(),
            ));
        }
        Ok(())
    }

    /// Mark the connection broken on a transport failure. A failed encode
    /// (`Invalid`) sent nothing, and an engine error arrives as a whole
    /// `Response::Err` frame, so neither leaves the stream misaligned.
    fn note<T>(&mut self, result: GdbResult<T>) -> GdbResult<T> {
        if matches!(
            result,
            Err(GdbError::Io(_) | GdbError::Timeout | GdbError::Corrupt(_))
        ) {
            self.broken = true;
        }
        result
    }

    /// One round trip. A [`Response::Err`] payload is surfaced as the
    /// original [`GdbError`] — remote errors keep their variant.
    ///
    /// Writes queued on the connection (a fleet session's) ride in the same
    /// frame: `req` goes out as the last entry of one `ExecBatch` behind
    /// them, the server runs the entries in order, and the last answer is
    /// `req`'s. The writes' own answers are kept for the fleet to settle,
    /// so a refused write is reported there, not as `req`'s answer.
    pub fn call(&mut self, req: &Request) -> GdbResult<Response> {
        let rsp = if self.queued.writes.is_empty() {
            self.send(req)?;
            self.recv()?
        } else {
            self.ship(Some(req))?.ok_or_else(|| {
                GdbError::Corrupt("a batch answered without its last entry".into())
            })?
        };
        match rsp {
            Response::Err(e) => Err(e),
            rsp => Ok(rsp),
        }
    }

    /// Queue a write to ride ahead of this connection's next call. Its
    /// answer binds `tag`, when given (see [`Connection::take_bound`]).
    /// Returns the queue depth.
    pub(crate) fn queue(&mut self, req: Request, tag: Option<u64>) -> usize {
        let q = &mut self.queued;
        if let Some(t) = tag {
            q.tags.push((q.writes.len(), t));
        }
        q.writes.push(req);
        q.writes.len()
    }

    /// Ship the queued writes alone, as one `ExecBatch` frame. What became
    /// of them is for [`Connection::settle`].
    pub(crate) fn flush(&mut self) {
        if !self.queued.writes.is_empty() {
            // A failure is kept as the queue's fault, which settle reports.
            let _ = self.ship(None);
        }
    }

    /// How many queued writes shipped since the last settle, and the first
    /// of them the server refused (or the transport failure that lost
    /// them).
    pub(crate) fn settle(&mut self) -> (u64, Option<GdbError>) {
        (
            mem::take(&mut self.queued.shipped),
            self.queued.fault.take(),
        )
    }

    /// The id the server answered for deferred `tag`, once its write has
    /// shipped. Taking it keeps the bindings from growing over a session.
    pub(crate) fn take_bound(&mut self, tag: u64) -> Option<u64> {
        self.queued.bound.remove(&tag)
    }

    /// Ship the queued writes, with `read` behind them when given, as one
    /// `ExecBatch` frame. The writes' answers are settled here — deferred
    /// tags bound, the first refusal kept as the fault — and `read`'s
    /// answer is returned.
    fn ship(&mut self, read: Option<&Request>) -> GdbResult<Option<Response>> {
        let writes = self.queued.writes.len();
        let mut batch = Request::ExecBatch(mem::take(&mut self.queued.writes));
        if let (Request::ExecBatch(entries), Some(read)) = (&mut batch, read) {
            entries.push(read.clone());
        }
        let answered = self.batch_round_trip(&batch, writes + usize::from(read.is_some()));
        // The queue keeps its buffer: the next writes queue without growing it.
        if let Request::ExecBatch(mut entries) = batch {
            entries.clear();
            self.queued.writes = entries;
        }
        let Queued {
            tags,
            bound,
            shipped,
            fault,
            ..
        } = &mut self.queued;
        let mut tags = tags.drain(..).peekable();
        let mut rsps = match answered {
            Ok(rsps) => rsps.into_iter(),
            Err(e) => {
                fault.get_or_insert(e.clone());
                return Err(e);
            }
        };
        *shipped += writes as u64;
        for (at, rsp) in rsps.by_ref().take(writes).enumerate() {
            match (tags.next_if(|&(pos, _)| pos == at), rsp) {
                (_, Response::Err(e)) => {
                    fault.get_or_insert(e);
                }
                (Some((_, tag)), Response::U64(id)) => {
                    bound.insert(tag, id);
                }
                (Some(_), other) => {
                    fault.get_or_insert(other.mismatch("U64"));
                }
                (None, _) => {}
            }
        }
        Ok(rsps.next())
    }

    /// Execute many requests in one frame and one round trip (v6). The
    /// envelope always succeeds at the wire level; per-entry failures come
    /// back as [`Response::Err`] entries, in request order. Queued writes
    /// do not ride along.
    pub fn call_batch(&mut self, reqs: Vec<Request>) -> GdbResult<Vec<Response>> {
        let n = reqs.len();
        self.batch_round_trip(&Request::ExecBatch(reqs), n)
    }

    /// Send an `ExecBatch` frame of `n` entries and read its `n` answers.
    fn batch_round_trip(&mut self, batch: &Request, n: usize) -> GdbResult<Vec<Response>> {
        self.send(batch)?;
        let rsps = self.recv()?.into_batch_done()?;
        if rsps.len() != n {
            return Err(GdbError::Corrupt(format!(
                "batch of {n} answered with {} responses",
                rsps.len()
            )));
        }
        Ok(rsps)
    }

    /// Probe the server's serving epoch (v6): the epoch a read would pin
    /// right now, `0` under locked hosting.
    pub fn epoch(&mut self) -> GdbResult<u64> {
        self.call(&Request::Epoch)?.into_u64()
    }

    /// Fetch a point-in-time snapshot of the server's metrics registry
    /// (counters, gauges, histograms). Empty when the server runs
    /// `GM_OBS=off`.
    pub fn get_stats(&mut self) -> GdbResult<RegistrySnapshot> {
        self.call(&Request::GetStats)?.into_stats()
    }

    /// Fetch a copy of the server's trace flight recorder (oldest record
    /// first). Empty when the server runs `GM_TRACE=off`.
    pub fn get_traces(&mut self) -> GdbResult<Vec<TraceRecord>> {
        self.call(&Request::GetTraces)?.into_traces()
    }

    /// Open an epoch-pinned write transaction on this connection (v7);
    /// returns the pinned read epoch. Subsequent write primitives buffer
    /// server-side and reads answer from the transaction's read-your-writes
    /// overlay until [`Connection::txn_commit`] / [`Connection::txn_abort`].
    /// Requires snapshot hosting.
    pub fn txn_begin(&mut self) -> GdbResult<u64> {
        self.call(&Request::TxnBegin)?.into_txn_begun()
    }

    /// Validate and atomically publish the connection's open transaction;
    /// returns `(replayed ops, serving epoch)`. A first-committer-wins
    /// loss surfaces as [`GdbError::TxnConflict`] with the write set
    /// discarded — restart the transaction against a fresh epoch to retry.
    pub fn txn_commit(&mut self) -> GdbResult<(u64, u64)> {
        self.call(&Request::TxnCommit)?.into_txn_committed()
    }

    /// Discard the connection's open transaction; returns the number of
    /// buffered ops thrown away.
    pub fn txn_abort(&mut self) -> GdbResult<u64> {
        self.call(&Request::TxnAbort)?.into_txn_aborted()
    }
}

/// Wire deadline for a read call: the context's *remaining* budget in
/// microseconds (0 = unbounded). An already-expired context becomes the
/// smallest non-zero budget, so the server observes the timeout immediately.
fn t_of(ctx: &QueryCtx) -> u64 {
    match ctx.remaining() {
        None => 0,
        Some(d) => (d.as_micros().min(u64::MAX as u128) as u64).max(1),
    }
}

/// A network-attached engine: implements [`GraphDb`] by forwarding every
/// primitive over one connection.
///
/// Reads take `&self`, so the connection lives behind a `Mutex` — calls on
/// one `RemoteEngine` serialize, exactly like one Gremlin client session.
/// Concurrent benchmark clients each get their own `RemoteEngine` (or
/// [`RemoteBackend`] session) instead of sharing one.
///
/// Infallible trait methods degrade gracefully on transport failure:
/// `features()`/`space()` return empty placeholders and `has_vertex_index`
/// returns `false`, since the trait gives them no error channel.
pub struct RemoteEngine {
    conn: Mutex<Connection>,
    name: String,
}

impl RemoteEngine {
    /// Dial a server.
    pub fn connect(addr: &str) -> GdbResult<RemoteEngine> {
        Ok(Self::from_connection(Connection::connect(addr)?))
    }

    /// Wrap an already-handshaken connection (the fleet coordinator dials
    /// and verifies identities itself, then hands the sockets here).
    pub fn from_connection(conn: Connection) -> RemoteEngine {
        let name = conn.engine_name().to_string();
        RemoteEngine {
            conn: Mutex::new(conn),
            name,
        }
    }

    /// The underlying connection (crate-internal: the fleet's batch flush
    /// and epoch probes need the raw framed socket).
    pub(crate) fn connection(&self) -> &Mutex<Connection> {
        &self.conn
    }

    /// Swap the server's engine for a fresh one (and forget any retained
    /// dataset / prepared workload). The benchmark analogue of dropping and
    /// recreating a database.
    pub fn reset(&self) -> GdbResult<()> {
        self.call(&Request::Reset)?.into_unit()
    }

    /// Resolve workload parameters server-side (required before
    /// [`RemoteEngine::exec_op`]). `seed`/`slots` must match the driver's.
    pub fn prepare(&self, seed: u64, slots: u32) -> GdbResult<()> {
        self.call(&Request::Prepare { seed, slots })?.into_unit()
    }

    /// Execute one whole driver op server-side in a single round trip. The
    /// returned [`OpResult`] carries the serving epoch when the server hosts
    /// a snapshot source.
    pub fn exec_op(
        &self,
        op: Op,
        worker: usize,
        op_index: u64,
        timeout: Duration,
    ) -> GdbResult<OpResult> {
        op_result(self.call(&Request::ExecOp {
            worker: worker as u32,
            op_index,
            trace_id: trace::current(),
            timeout_micros: timeout.as_micros().min(u64::MAX as u128) as u64,
            // Trait-level callers are sequential clients: read-your-writes.
            strict: true,
            op,
        })?)
    }

    /// Fetch the server's live metrics registry snapshot (see
    /// [`Connection::get_stats`]).
    pub fn stats(&self) -> GdbResult<RegistrySnapshot> {
        self.conn
            .lock()
            .map_err(|_| GdbError::Poisoned("remote connection mutex poisoned".into()))?
            .get_stats()
    }

    fn call(&self, req: &Request) -> GdbResult<Response> {
        self.conn
            .lock()
            .map_err(|_| GdbError::Poisoned("remote connection mutex poisoned".into()))?
            .call(req)
    }
}

/// Build an [`OpResult`] from an `ExecDone` frame: the server-measured
/// phases (lock wait, engine exec, snapshot pin, clone/publish) land in
/// their own slots; the wire phases stay zero until the caller fills them
/// from its own clock.
fn op_result(rsp: Response) -> GdbResult<OpResult> {
    let Response::ExecDone {
        card,
        lock_wait,
        exec_nanos,
        pin_nanos,
        clone_nanos,
        epoch,
    } = rsp
    else {
        return Err(rsp.mismatch("ExecDone"));
    };
    let mut phases = PhaseNanos::zero();
    phases.set(Phase::LockWait, lock_wait);
    phases.set(Phase::EngineExec, exec_nanos);
    phases.set(Phase::SnapshotPin, pin_nanos);
    phases.set(Phase::ClonePublish, clone_nanos);
    Ok(OpResult {
        cardinality: card,
        epoch,
        phases,
    })
}

/// An id-list response as typed ids.
fn ids<T>(rsp: Response, wrap: fn(u64) -> T) -> GdbResult<Vec<T>> {
    Ok(rsp.into_u64_list()?.into_iter().map(wrap).collect())
}

impl GraphSnapshot for RemoteEngine {
    // gm-check: allow-default(epoch: epochs ride on ExecOp responses; trait-level remote reads are unversioned)
    fn name(&self) -> String {
        self.name.clone()
    }

    fn features(&self) -> EngineFeatures {
        self.call(&Request::Features)
            .and_then(Response::into_features)
            .unwrap_or_else(|_| EngineFeatures {
                name: self.name.clone(),
                system_type: "Remote".into(),
                storage: "network-attached (features unavailable)".into(),
                edge_traversal: "remote".into(),
                optimized_adapter: false,
                async_writes: false,
                attribute_indexes: false,
                max_identifier_len: None,
            })
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        let rsp = self.call(&Request::ResolveVertex(canonical)).ok()?;
        rsp.into_opt_u64().ok()?.map(Vid)
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        let rsp = self.call(&Request::ResolveEdge(canonical)).ok()?;
        rsp.into_opt_u64().ok()?.map(Eid)
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.call(&Request::VertexCount { t: t_of(ctx) })?
            .into_u64()
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.call(&Request::EdgeCount { t: t_of(ctx) })?.into_u64()
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.call(&Request::EdgeLabelSet { t: t_of(ctx) })?
            .into_str_list()
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        let req = Request::VerticesWithProperty {
            name: name.to_string(),
            value: value.clone(),
            t: t_of(ctx),
        };
        ids(self.call(&req)?, Vid)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        let req = Request::EdgesWithProperty {
            name: name.to_string(),
            value: value.clone(),
            t: t_of(ctx),
        };
        ids(self.call(&req)?, Eid)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let req = Request::EdgesWithLabel {
            label: label.to_string(),
            t: t_of(ctx),
        };
        ids(self.call(&req)?, Eid)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.call(&Request::GetVertex(v.0))?.into_opt_vertex()
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.call(&Request::GetEdge(e.0))?.into_opt_edge()
    }

    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        // The server walks and ships the visit in one response; the client
        // then replays it into `f`.
        let req = Request::VertexEdges {
            v: v.0,
            dir,
            label: label.map(str::to_string),
            t: t_of(ctx),
        };
        self.call(&req)?
            .into_edge_refs()?
            .into_iter()
            .try_for_each(f)
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        let t = t_of(ctx);
        self.call(&Request::VertexDegree { v: v.0, dir, t })?
            .into_u64()
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let t = t_of(ctx);
        self.call(&Request::VertexEdgeLabels { v: v.0, dir, t })?
            .into_str_list()
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        // The server materializes the scan (honoring the forwarded deadline)
        // and ships the ids in one response; the client then iterates the
        // buffered ids. A mid-scan server timeout surfaces as Err here.
        let ids = ids(self.call(&Request::ScanVertices { t: t_of(ctx) })?, Vid)?;
        Ok(Box::new(ids.into_iter().map(Ok)))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        let ids = ids(self.call(&Request::ScanEdges { t: t_of(ctx) })?, Eid)?;
        Ok(Box::new(ids.into_iter().map(Ok)))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let name = name.to_string();
        self.call(&Request::VertexProperty { v: v.0, name })?
            .into_opt_value()
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let name = name.to_string();
        self.call(&Request::EdgeProperty { e: e.0, name })?
            .into_opt_value()
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        let ends = self.call(&Request::EdgeEndpoints(e.0))?.into_opt_pair()?;
        Ok(ends.map(|(s, d)| (Vid(s), Vid(d))))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        self.call(&Request::EdgeLabel(e.0))?.into_opt_str()
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        self.call(&Request::VertexLabel(v.0))?.into_opt_str()
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        // One frame instead of the default per-vertex decomposition: the
        // *hosted* engine's own strategy answers, so per-engine physical
        // differences survive the wire.
        let t = t_of(ctx);
        ids(self.call(&Request::DegreeScan { dir, k, t })?, Vid)
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        let t = t_of(ctx);
        ids(self.call(&Request::DistinctNeighborScan { dir, t })?, Vid)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        let prop = prop.to_string();
        self.call(&Request::HasVertexIndex { prop })
            .and_then(Response::into_bool)
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        self.call(&Request::Space)
            .and_then(Response::into_space)
            .unwrap_or_default()
    }
}

impl GraphDb for RemoteEngine {
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
        self.call(&Request::from(m))?.into_applied()
    }
}

// ----- workload backend ----------------------------------------------------

/// The network transport for the workload driver: each worker dials its own
/// connection (N independent benchmark clients), and every driver op is one
/// `ExecOp` frame executed server-side. Each session's socket carries a
/// read/write deadline of `op_timeout` + 1 s, so a stalled server fails an
/// op with [`GdbError::Timeout`] instead of hanging the worker.
///
/// Construct via [`RemoteBackend::setup`] (which also resets, loads and
/// prepares the server), or directly when the server is already set up.
pub struct RemoteBackend {
    addr: String,
    engine: String,
    op_timeout: Duration,
    /// Request strict (read-your-writes) pins from a snapshot-hosted
    /// server. Sequential replays need this for deterministic traces;
    /// concurrent runs leave it off for the scalable pin fast path.
    strict_reads: bool,
}

impl RemoteBackend {
    /// Point at a server that is already loaded and prepared.
    pub fn new(addr: impl Into<String>, engine: impl Into<String>, op_timeout: Duration) -> Self {
        RemoteBackend {
            addr: addr.into(),
            engine: engine.into(),
            op_timeout,
            strict_reads: false,
        }
    }

    /// Set up `addr`'s server for a fresh run — reset, ship and bulk-load
    /// `data`, sync, prepare workload parameters from `cfg.seed` — and point
    /// at it. Driving the result through `run_backend` puts dispatch and
    /// serialization cost *inside* every latency sample; the report is
    /// shaped exactly like an in-process one.
    pub fn setup(addr: &str, data: &Dataset, cfg: &WorkloadConfig) -> GdbResult<Self> {
        let mut ctl = RemoteEngine::connect(addr)?;
        ctl.reset()?;
        ctl.bulk_load(data, &LoadOptions::default())?;
        ctl.sync()?;
        ctl.prepare(cfg.seed, WORKLOAD_SLOTS as u32)?;
        Ok(RemoteBackend::new(addr, ctl.name(), cfg.op_timeout))
    }

    /// Request strict (read-your-writes) pins for every read: a sequential
    /// replay against a snapshot-hosted server needs them for a
    /// deterministic trace.
    pub fn with_strict_reads(mut self) -> Self {
        self.strict_reads = true;
        self
    }
}

impl Backend for RemoteBackend {
    fn engine(&self) -> String {
        self.engine.clone()
    }

    fn isolation(&self) -> String {
        // The server decides locked vs snapshot hosting; the client only
        // knows the ops crossed a wire. Epoch-tagged responses (and the
        // epoch-skew counter) reveal the rest.
        "remote".into()
    }

    fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        // The server bounds a read by `op_timeout` itself, so an answer
        // later than that plus a second means the peer is stalled or gone.
        let deadline = self.op_timeout.checked_add(Duration::from_secs(1));
        Ok(Box::new(RemoteSession {
            conn: Connection::dial(&self.addr, deadline)?,
            op_timeout: self.op_timeout,
            strict_reads: self.strict_reads,
        }))
    }
}

struct RemoteSession {
    conn: Connection,
    op_timeout: Duration,
    strict_reads: bool,
}

impl Session for RemoteSession {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        let req = Request::ExecOp {
            worker: worker as u32,
            op_index,
            // The driver stamped this op's id into the thread-local before
            // calling execute; forwarding it lets the server record its
            // phase tree under the same id (0 = untraced, server skips).
            trace_id: trace::current(),
            timeout_micros: self.op_timeout.as_micros().min(u64::MAX as u128) as u64,
            strict: self.strict_reads,
            op,
        };
        // Under `GM_OBS=phases`, split the round trip client-side: frame
        // encode/decode is `wire_encode`; the rest of the round trip minus
        // the server's own reported time is `wire_io`. Otherwise skip every
        // clock read — the fast path stays as it was.
        let timing = gm_obs::phases_on();
        let (mut enc, mut dec) = (0, 0);
        let t_rt = timing.then(Instant::now);
        self.conn
            .send_with(|out| stopwatch(timing, &mut enc, || req.encode_into(out)))?;
        let rsp = self
            .conn
            .recv_with(|frame| stopwatch(timing, &mut dec, || Response::decode(frame)))?;
        let round_trip = t_rt.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut out = op_result(rsp)?;
        if timing {
            // Server-attributed time (lock wait + exec + pin + clone) rode
            // inside the socket round trip; only the remainder is the wire.
            let server = out.phases.total();
            let codec = enc.saturating_add(dec);
            out.phases.set(Phase::WireEncode, codec);
            out.phases.set(
                Phase::WireIo,
                round_trip.saturating_sub(codec).saturating_sub(server),
            );
        }
        Ok(out)
    }
}

/// Run `f`, storing its wall time in `nanos` when `on` (no clock is read
/// otherwise).
fn stopwatch<T>(on: bool, nanos: &mut u64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *nanos = t.elapsed().as_nanos() as u64;
    out
}
