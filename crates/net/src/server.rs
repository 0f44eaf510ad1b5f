//! The std-only TCP engine server.
//!
//! One [`Server`] hosts one graph through the same [`Host`] seam the
//! in-process driver uses — a locked engine, an MVCC snapshot source or a
//! per-shard-locked composite decides how concurrent connections share it,
//! and every `ExecOp` runs through the driver's own [`execute_op`] — with a
//! thread-per-connection accept loop. The server's only lock of its own is
//! the swap lock `Reset` replaces the host under. Each connection is a plain
//! read→execute→respond loop over one [`FrameReader`] / [`FrameWriter`]
//! pair (buffered reads, one `write` per response — see [`crate::wire`]),
//! so **pipelined** clients (several requests in flight on one connection)
//! are handled naturally: responses come back in request order.
//!
//! The server is deliberately tokio-free: the paper's systems all expose a
//! blocking socket server per client connection, and a thread-per-connection
//! std server reproduces that deployment shape with no runtime dependency.
//!
//! State machine per connection: [`Request::Hello`] first (magic + version
//! checked, [`Response::HelloAck`] returned), then any mix of primitive
//! `GraphDb` calls and workload frames. `Reset` → `BulkLoad` → `Prepare` →
//! `ExecOp…` is the canonical benchmarking sequence (see
//! [`crate::client::RemoteBackend::setup`]).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

use gm_core::params::{ResolvedParams, Workload};
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{Dataset, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx, Vid};
use gm_mvcc::{write_once, WriteTxn};
use gm_obs::{phase, trace, Counter, Histo, Phase};
use gm_workload::{execute_op, read_once, Host, Op, SharedEngine, SNAPSHOT_PIN_STALENESS};

use crate::proto::{FrameKind, Request, Response, MAGIC, PROTO_VERSION};
use crate::wire::{FrameReader, FrameWriter};

/// Factory producing fresh, empty engines — what `Reset` swaps in.
pub type EngineFactory = Box<dyn Fn() -> Box<dyn GraphDb> + Send + Sync>;

/// Factory producing fresh, empty hosts (a locked engine, a snapshot source,
/// a sharded composite) — what `Reset` swaps in.
pub type HostFactory = Box<dyn Fn() -> Box<dyn Host> + Send + Sync>;

/// The hosted graph's swap guard: held shared by every request that touches
/// the host, so a `Reset` (which takes it exclusively) never swaps the host
/// out from under one.
type HostGuard<'a> = Ranked<RwLockReadGuard<'a, Box<dyn Host>>>;

/// Everything the connection handlers share.
struct Hosted {
    factory: HostFactory,
    /// The hosted graph, behind the lock `Reset` swaps it under. How
    /// concurrent requests share the graph is the host's own business: this
    /// lock is taken shared on every op path.
    host: RwLock<Box<dyn Host>>,
    /// Dataset retained from the last `BulkLoad`, for `Prepare`.
    data: Mutex<Option<Dataset>>,
    /// Workload parameters resolved by `Prepare`, snapshotted per op.
    params: RwLock<Option<Arc<ResolvedParams>>>,
    /// Bumped by every `Reset`, under the exclusive swap lock. Connections
    /// stamp their `owned_edges` pool with the generation it was filled
    /// under and discard it when the host has since been replaced — a stale
    /// `Eid` from a discarded engine must never delete an edge of the
    /// freshly loaded one.
    generation: AtomicU64,
    /// Fleet identity `(shard_id, fleet_size)` echoed in every `HelloAck`
    /// so a fleet client can verify it dialed the shard it routed to.
    shard: Option<(u32, u32)>,
}

impl Hosted {
    fn poisoned(what: &str) -> GdbError {
        GdbError::Poisoned(format!(
            "server: {what} lock poisoned by a panicking writer"
        ))
    }

    /// The hosted graph, held against `Reset` for the guard's lifetime.
    ///
    /// Not timed into `lock_wait`: the lock's only writer is `Reset`, which
    /// no measured run overlaps, so the wait is zero and timing it would
    /// cost every request two clock reads. The host's own locks are timed.
    fn host(&self) -> GdbResult<HostGuard<'_>> {
        // gm-lock: swap
        let t = lockorder::acquire(LockRank::Swap, "gm-net/server.rs host");
        self.host
            .read()
            .map(|g| Ranked::new(g, t))
            .map_err(|_| Self::poisoned("host swap"))
    }

    /// Replace the hosted graph with a fresh one from the factory and forget
    /// the dataset and parameters — all under the exclusive swap lock, so a
    /// request sees either the old host with its generation or the new one
    /// with its own.
    fn reset(&self) -> GdbResult<()> {
        // gm-lock: swap
        let _t = lockorder::acquire(LockRank::Swap, "gm-net/server.rs host reset");
        let mut host = self.host.write().map_err(|_| Self::poisoned("host swap"))?;
        *host = (self.factory)();
        *self.data.lock().map_err(|_| Self::poisoned("dataset"))? = None;
        *self.params.write().map_err(|_| Self::poisoned("params"))? = None;
        self.generation.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// A bound, not-yet-running engine server.
pub struct Server {
    listener: TcpListener,
    hosted: Arc<Hosted>,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (use `"127.0.0.1:0"` at bind time to get an
    /// OS-assigned loopback port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Connections
    /// already open keep working until their clients hang up; they hold only
    /// an `Arc` to the hosted engine.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:7687"` or `"127.0.0.1:0"`), hosting
    /// engines produced by `factory` behind the shared `RwLock` (reads block
    /// writes and vice versa) — [`Server::bind_host`] over a
    /// [`SharedEngine`].
    pub fn bind(addr: &str, factory: EngineFactory) -> GdbResult<Server> {
        Self::bind_host(
            addr,
            Box::new(move || Box::new(SharedEngine::new(factory())) as Box<dyn Host>),
        )
    }

    /// Bind to `addr` hosting graphs produced by `factory`. The [`Host`]
    /// decides how concurrent connections share the graph: a locked engine
    /// (reads block writes), a `gm-mvcc` snapshot source (read requests pin
    /// an immutable epoch, `ExecOp` responses carry it, and connections may
    /// open write transactions), or `gm-shard`'s per-partition-locked
    /// composite (writers on different shards do not serialize — one
    /// server, many shards). One host is created immediately so the server
    /// is usable before any `Reset`.
    pub fn bind_host(addr: &str, factory: HostFactory) -> GdbResult<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| GdbError::Io(format!("binding {addr}: {e}")))?;
        Ok(Server {
            listener,
            hosted: Arc::new(Hosted {
                host: RwLock::new(factory()),
                factory,
                data: Mutex::new(None),
                params: RwLock::new(None),
                generation: AtomicU64::new(0),
                shard: None,
            }),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The hosted graph's read-path isolation label (`locked`,
    /// `snapshot-cow`, `sharded-locked`, …).
    pub fn isolation(&self) -> GdbResult<String> {
        Ok(self.hosted.host()?.isolation())
    }

    /// Declare this server one shard of a fleet: `HelloAck` then carries
    /// `(shard_id, fleet_size)` so a fleet client can verify its routing
    /// table against the process it actually dialed. Call before
    /// [`Server::run`]/[`Server::spawn`] — identity is fixed once serving.
    pub fn with_shard_identity(mut self, shard_id: u32, fleet_size: u32) -> Server {
        if let Some(hosted) = Arc::get_mut(&mut self.hosted) {
            hosted.shard = Some((shard_id, fleet_size));
        }
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> GdbResult<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| GdbError::Io(e.to_string()))
    }

    /// Run the accept loop on the current thread until shutdown (the
    /// `gm-server` binary's main loop).
    pub fn run(self) {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let hosted = Arc::clone(&self.hosted);
                    thread::spawn(move || handle_conn(stream, hosted));
                }
                Err(e) => eprintln!("[gm-server] accept failed: {e}"),
            }
        }
    }

    /// Run the accept loop on a background thread; returns a handle with
    /// the bound address and a shutdown switch.
    pub fn spawn(self) -> GdbResult<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let join = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, stop, join })
    }
}

/// Server-side op metrics (`net.ops` counter, `net.op_nanos` latency
/// histogram), resolved once against the global registry. `None` under
/// `GM_OBS=off` so the hot path pays nothing.
struct NetMetrics {
    ops: Counter,
    op_nanos: Histo,
}

/// The server's tail gate: one latency population per process (every op
/// the server executes), feeding the global flight recorder.
static SERVER_GATE: trace::TailGate = trace::TailGate::new();

fn net_metrics() -> Option<&'static NetMetrics> {
    static METRICS: OnceLock<Option<NetMetrics>> = OnceLock::new();
    METRICS
        .get_or_init(|| {
            gm_obs::counters_on().then(|| {
                let g = gm_obs::global();
                NetMetrics {
                    ops: g.counter("net.ops"),
                    op_nanos: g.histogram("net.op_nanos"),
                }
            })
        })
        .as_ref()
}

/// Deadline context from a wire timeout (0 = unbounded).
fn ctx_for(timeout_micros: u64) -> QueryCtx {
    if timeout_micros == 0 {
        QueryCtx::unbounded()
    } else {
        QueryCtx::with_timeout(Duration::from_micros(timeout_micros))
    }
}

/// Cap on a connection's first frame. A `Hello` is 7 bytes; everything
/// larger is not a handshake.
const MAX_HELLO_FRAME: usize = 64;

fn handle_conn(stream: TcpStream, hosted: Arc<Hosted>) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => FrameReader::new(s),
        Err(e) => {
            eprintln!("[gm-server] cannot clone stream: {e}");
            return;
        }
    };
    let mut writer = FrameWriter::new(stream);

    // Handshake first: anything else (or a magic/version mismatch) gets one
    // error frame and the connection is closed — never misparse an
    // incompatible peer. The frame is read under `MAX_HELLO_FRAME`: a peer
    // that has not yet shown it speaks the protocol cannot make the server
    // read, let alone allocate, for its length prefix.
    let first = reader.recv_within(MAX_HELLO_FRAME, Request::decode);
    match first {
        Ok(Request::Hello { magic, version }) if magic == MAGIC && version == PROTO_VERSION => {
            let rsp = match hosted.host().map(|host| host.name()) {
                Ok(engine) => Response::HelloAck {
                    version: PROTO_VERSION,
                    engine,
                    shard: hosted.shard,
                },
                Err(e) => Response::Err(e),
            };
            if write_response(&mut writer, &rsp).is_err() {
                return;
            }
        }
        Ok(Request::Hello { magic, version }) => {
            let why = format!(
                "handshake rejected: magic {magic:#010x} version {version} \
                 (server speaks magic {MAGIC:#010x} version {PROTO_VERSION})"
            );
            let _ = write_response(&mut writer, &Response::Err(GdbError::Invalid(why)));
            return;
        }
        Ok(other) => {
            let _ = write_response(
                &mut writer,
                &Response::Err(GdbError::Invalid(format!(
                    "first frame must be Hello, got {other:?}"
                ))),
            );
            return;
        }
        Err(GdbError::Io(_)) => return, // disconnected before handshake
        Err(e) => {
            let _ = write_response(&mut writer, &Response::Err(e));
            return;
        }
    }

    // Deletions in the driver's write mix target edges *this worker*
    // created; the pool lives with the connection, mirroring the per-worker
    // pool of the in-process driver. It is stamped with the engine
    // generation it was filled under so a `Reset` from *any* connection
    // invalidates it.
    let mut owned_edges = OwnedEdges {
        pool: Vec::new(),
        generation: hosted.generation.load(Ordering::SeqCst),
    };
    // At most one open write transaction per connection (v7); dropped with
    // the connection, which discards an uncommitted write set.
    let mut txn: Option<ConnTxn> = None;

    loop {
        let req = match reader.recv(Request::decode) {
            Ok(req) => req,
            Err(GdbError::Io(_) | GdbError::Timeout) => return, // client hung up
            Err(e) => {
                // A frame we cannot parse means the stream is no longer
                // trustworthy: answer with the decode error and drop the
                // connection rather than guessing at alignment.
                let _ = write_response(&mut writer, &Response::Err(e));
                return;
            }
        };
        let rsp = handle_request(&hosted, req, &mut owned_edges, &mut txn);
        if write_response(&mut writer, &rsp).is_err() {
            return;
        }
    }
}

fn write_response(writer: &mut FrameWriter<TcpStream>, rsp: &Response) -> GdbResult<()> {
    writer.send(|out| {
        let start = out.len();
        rsp.encode_into(out).or_else(|e| {
            // The response itself cannot be framed (FrameTooLarge): answer
            // with the protocol error instead so the stream stays aligned.
            out.truncate(start);
            Response::Err(e).encode_into(out)
        })
    })
}

/// A connection's pool of self-created edges, valid only for the engine
/// generation it was filled under.
struct OwnedEdges {
    pool: Vec<Eid>,
    generation: u64,
}

impl OwnedEdges {
    /// The pool for the current engine generation — emptied first if the
    /// engine was replaced since the pool was filled.
    fn current(&mut self, hosted: &Hosted) -> &mut Vec<Eid> {
        let generation = hosted.generation.load(Ordering::SeqCst);
        if generation != self.generation {
            self.pool.clear();
            self.generation = generation;
        }
        &mut self.pool
    }
}

/// A connection's open write transaction, stamped with the engine
/// generation it began under — a `Reset` from any connection invalidates
/// it (committing a write set buffered against a discarded engine would
/// replay stale ids into the fresh one).
struct ConnTxn {
    txn: WriteTxn,
    generation: u64,
}

fn handle_request(
    hosted: &Hosted,
    req: Request,
    owned_edges: &mut OwnedEdges,
    txn: &mut Option<ConnTxn>,
) -> Response {
    match execute_request(hosted, req, owned_edges, txn) {
        Ok(rsp) => rsp,
        Err(e) => Response::Err(e),
    }
}

/// Open an epoch-pinned write transaction on this connection (v7). Only a
/// host with a snapshot source has the MVCC machinery for it.
fn txn_begin(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    if txn.is_some() {
        return Err(GdbError::Invalid(
            "TxnBegin with a transaction already open on this connection".into(),
        ));
    }
    // gm-lock: swap
    let host = hosted.host()?;
    let opened = WriteTxn::begin(snapshot_source(&**host)?)?;
    let epoch = opened.base_epoch();
    *txn = Some(ConnTxn {
        txn: opened,
        generation: hosted.generation.load(Ordering::SeqCst),
    });
    Ok(Response::TxnBegun { epoch })
}

/// Validate and publish the connection's open transaction (v7). The write
/// set is consumed either way — a conflicting transaction cannot be
/// retried, only restarted against a fresh epoch.
fn txn_commit(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    let state = txn.take().ok_or_else(|| {
        GdbError::Invalid("TxnCommit without an open transaction on this connection".into())
    })?;
    // gm-lock: swap
    let host = hosted.host()?;
    if state.generation != hosted.generation.load(Ordering::SeqCst) {
        return Err(GdbError::TxnConflict(
            "the hosted engine was reset after this transaction began".into(),
        ));
    }
    let source = snapshot_source(&**host)?;
    let ops = state.txn.commit(source)?;
    Ok(Response::TxnCommitted {
        ops,
        epoch: source.current_epoch(),
    })
}

fn snapshot_source(host: &dyn Host) -> GdbResult<&dyn gm_mvcc::SnapshotSource> {
    host.snapshot_source()
        .ok_or_else(|| GdbError::Unsupported("write transactions require snapshot hosting".into()))
}

fn txn_abort(txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    let state = txn.take().ok_or_else(|| {
        GdbError::Invalid("TxnAbort without an open transaction on this connection".into())
    })?;
    Ok(Response::TxnAborted {
        ops: state.txn.abort(),
    })
}

/// The error for a frame whose table [`FrameKind`] sent it to a dispatcher
/// with no arm for it.
fn misrouted(frame: &str, dispatcher: &str) -> GdbError {
    GdbError::Invalid(format!("{frame} frame has no {dispatcher} arm"))
}

fn vids(vs: Vec<Vid>) -> Response {
    Response::U64List(vs.into_iter().map(|v| v.0).collect())
}

fn eids(es: Vec<Eid>) -> Response {
    Response::U64List(es.into_iter().map(|e| e.0).collect())
}

/// The [`FrameKind::Read`] frames → `GraphSnapshot` calls, written once:
/// `g` is a read view of the hosted engine, or the connection's open
/// transaction (its epoch-pinned read-your-writes overlay).
fn answer_read(g: &dyn GraphSnapshot, req: Request) -> GdbResult<Response> {
    Ok(match req {
        Request::Features => Response::Features(g.features()),
        Request::ResolveVertex(c) => Response::OptU64(g.resolve_vertex(c).map(|v| v.0)),
        Request::ResolveEdge(c) => Response::OptU64(g.resolve_edge(c).map(|e| e.0)),
        Request::VertexCount { t } => Response::U64(g.vertex_count(&ctx_for(t))?),
        Request::EdgeCount { t } => Response::U64(g.edge_count(&ctx_for(t))?),
        Request::EdgeLabelSet { t } => Response::StrList(g.edge_label_set(&ctx_for(t))?),
        Request::VerticesWithProperty { name, value, t } => {
            vids(g.vertices_with_property(&name, &value, &ctx_for(t))?)
        }
        Request::EdgesWithProperty { name, value, t } => {
            eids(g.edges_with_property(&name, &value, &ctx_for(t))?)
        }
        Request::EdgesWithLabel { label, t } => eids(g.edges_with_label(&label, &ctx_for(t))?),
        Request::GetVertex(v) => Response::OptVertex(g.vertex(Vid(v))?),
        Request::GetEdge(e) => Response::OptEdge(g.edge(Eid(e))?),
        Request::VertexEdges { v, dir, label, t } => {
            Response::EdgeRefs(g.vertex_edges(Vid(v), dir, label.as_deref(), &ctx_for(t))?)
        }
        Request::VertexDegree { v, dir, t } => {
            Response::U64(g.vertex_degree(Vid(v), dir, &ctx_for(t))?)
        }
        Request::VertexEdgeLabels { v, dir, t } => {
            Response::StrList(g.vertex_edge_labels(Vid(v), dir, &ctx_for(t))?)
        }
        Request::ScanVertices { t } => Response::U64List(
            g.scan_vertices(&ctx_for(t))?
                .map(|v| v.map(|v| v.0))
                .collect::<GdbResult<_>>()?,
        ),
        Request::ScanEdges { t } => Response::U64List(
            g.scan_edges(&ctx_for(t))?
                .map(|e| e.map(|e| e.0))
                .collect::<GdbResult<_>>()?,
        ),
        Request::VertexProperty { v, name } => {
            Response::OptValue(g.vertex_property(Vid(v), &name)?)
        }
        Request::EdgeProperty { e, name } => Response::OptValue(g.edge_property(Eid(e), &name)?),
        Request::EdgeEndpoints(e) => {
            Response::OptPair(g.edge_endpoints(Eid(e))?.map(|(s, d)| (s.0, d.0)))
        }
        Request::EdgeLabel(e) => Response::OptStr(g.edge_label(Eid(e))?),
        Request::VertexLabel(v) => Response::OptStr(g.vertex_label(Vid(v))?),
        Request::DegreeScan { dir, k, t } => vids(g.degree_scan(dir, k, &ctx_for(t))?),
        Request::DistinctNeighborScan { dir, t } => {
            vids(g.distinct_neighbor_scan(dir, &ctx_for(t))?)
        }
        Request::HasVertexIndex { prop } => Response::Bool(g.has_vertex_index(&prop)),
        Request::Space => Response::Space(g.space()),
        other => return Err(misrouted(other.name(), "read")),
    })
}

fn execute_request(
    hosted: &Hosted,
    req: Request,
    owned_edges: &mut OwnedEdges,
    txn: &mut Option<ConnTxn>,
) -> GdbResult<Response> {
    // Primitives go to the connection's open transaction when there is
    // one, else to the host: a strict read view per request (for a snapshot
    // host a freshly pinned epoch, so a long scan here cannot block a writer
    // on another connection, and a client issuing `add_vertex` then
    // `vertex_count` sees its own write) or one write batch.
    match (req.kind(), txn.as_mut()) {
        (FrameKind::Read, Some(open)) => return answer_read(&open.txn, req),
        (FrameKind::Read, None) => {
            // gm-lock: swap
            let host = hosted.host()?;
            return read_once(&**host, Duration::ZERO, |g| answer_read(g, req)).map(|(r, _)| r);
        }
        // A write frame is a mutation, applied to the open transaction
        // (where it buffers; ids of entities created there are placeholders
        // until commit) or under the host's write path.
        (FrameKind::Write, open) => {
            let name = req.name();
            let m = req
                .into_mutation()
                .ok_or_else(|| misrouted(name, "write"))?;
            let applied = match open {
                Some(open) => open.txn.apply(m),
                None => {
                    // gm-lock: swap
                    let host = hosted.host()?;
                    write_once(|db| db.apply(m), |w| host.write_batch(w))
                }
            };
            return applied.map(Response::from);
        }
        (FrameKind::Control, _) => {}
    }
    // Frames that would bypass an open transaction (workload execution,
    // dataset/engine lifecycle) are rejected until it commits or aborts.
    if txn.is_some()
        && matches!(
            req,
            Request::Reset
                | Request::BulkLoad { .. }
                | Request::Prepare { .. }
                | Request::ExecOp { .. }
        )
    {
        return Err(GdbError::Invalid(
            "request not allowed inside an open transaction; commit or abort first".into(),
        ));
    }
    Ok(match req {
        Request::Hello { .. } => {
            return Err(GdbError::Invalid("Hello after handshake".into()));
        }
        Request::TxnBegin => return txn_begin(hosted, txn),
        Request::TxnCommit => return txn_commit(hosted, txn),
        Request::TxnAbort => return txn_abort(txn),
        Request::Reset => {
            hosted.reset()?;
            Response::Unit
        }
        Request::BulkLoad { opts, data } => {
            // gm-lock: swap
            let host = hosted.host()?;
            let stats = write_once(|db| db.bulk_load(&data, &opts), |w| host.write_batch(w))?;
            *hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))? = Some(data);
            Response::Load(stats)
        }
        Request::Prepare { seed, slots } => {
            let data = hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))?
                .clone()
                .ok_or_else(|| {
                    GdbError::Invalid("Prepare before BulkLoad: no dataset retained".into())
                })?;
            let workload = Workload::choose(&data, seed, slots as usize);
            // gm-lock: swap
            let host = hosted.host()?;
            let (params, _) = read_once(&**host, Duration::ZERO, |g| workload.resolve(g))?;
            *hosted
                .params
                .write()
                .map_err(|_| Hosted::poisoned("params"))? = Some(Arc::new(params));
            Response::Unit
        }
        Request::ExecOp {
            worker,
            op_index,
            trace_id,
            timeout_micros,
            strict,
            op,
        } => {
            let params = hosted
                .params
                .read()
                .map_err(|_| Hosted::poisoned("params"))?
                .clone()
                .ok_or_else(|| {
                    GdbError::Invalid("ExecOp before Prepare: no workload parameters".into())
                })?;
            // Adopt the *client's* trace id: the server-side record lands
            // under the same name the client prints, so one id stitches
            // both halves of a remote op. Off-path: with `GM_TRACE=off` or
            // an untraced op (id 0), `t_trace` stays `None` and no clock
            // is read for tracing.
            trace::begin_op(trace_id);
            let op_code = op.trace_code();
            let t_trace = (trace_id != 0 && trace::enabled()).then(Instant::now);
            if let Op::Read(inst) = &op {
                if inst.id.is_mutation() {
                    return Err(GdbError::Invalid(format!(
                        "ExecOp read frame carries mutating query Q{}",
                        inst.id.number()
                    )));
                }
            }
            // The connection thread owns this op end to end, so the
            // thread-local phase accumulators attribute every engine-lock
            // acquisition and span below to exactly this op.
            phase::reset_op();
            let t0 = net_metrics().map(|m| {
                m.ops.inc();
                Instant::now()
            });
            // gm-lock: swap
            let host = hosted.host()?;
            // The generation check of `current()` must happen while holding
            // the host against `Reset`: a swap interleaving between the
            // check and a write would otherwise apply a pre-reset edge pool
            // to the fresh engine (and stale eids alias live edges once ids
            // restart at 0).
            let pool = owned_edges.current(hosted);
            let timeout = (timeout_micros != 0).then(|| Duration::from_micros(timeout_micros));
            // Strict pins (sequential replays) must read their own earlier
            // writes; concurrent drivers take the group-committed fast path.
            let staleness = if strict {
                Duration::ZERO
            } else {
                SNAPSHOT_PIN_STALENESS
            };
            let (card, epoch) = execute_op(
                &**host,
                op,
                &params,
                timeout,
                staleness,
                worker as usize,
                op_index,
                pool,
            )?;
            drop(host);
            let phases = phase::take_all();
            if let (Some(m), Some(t0)) = (net_metrics(), t0) {
                m.op_nanos.record(t0.elapsed().as_nanos() as u64);
            }
            if let Some(t) = t_trace {
                trace::record_op(
                    &SERVER_GATE,
                    trace_id,
                    worker,
                    op_index,
                    op_code,
                    trace::TraceOrigin::Server,
                    t.elapsed().as_nanos() as u64,
                    phases,
                );
            }
            Response::ExecDone {
                card,
                lock_wait: phases.get(Phase::LockWait),
                exec_nanos: phases.get(Phase::EngineExec),
                pin_nanos: phases.get(Phase::SnapshotPin),
                clone_nanos: phases.get(Phase::ClonePublish),
                epoch,
            }
        }
        // Server-global introspection is transaction-agnostic.
        Request::GetStats => Response::Stats(gm_obs::global().snapshot()),
        Request::GetTraces => Response::Traces(if trace::enabled() {
            trace::global_ring().snapshot()
        } else {
            Vec::new()
        }),
        // One frame, many ops: executed strictly in order, one response per
        // entry, each entry dispatched as if it had arrived alone (so it
        // sees the open transaction, if any). A failing entry becomes a
        // `Response::Err` *inside* the batch — the envelope itself always
        // succeeds, so one bad op cannot desync a pipelined stream. The
        // wire decoder rejects nested batches, so the recursion below is
        // one level deep.
        Request::ExecBatch(reqs) => {
            let mut rsps = Vec::with_capacity(reqs.len());
            for sub in reqs {
                rsps.push(handle_request(hosted, sub, owned_edges, txn));
            }
            Response::BatchDone(rsps)
        }
        // Epoch probe: what a read would pin right now — inside a
        // transaction, the epoch its reads are pinned to. Locked and
        // sharded-locked hosts have no epochs — report 0, which min-reduces
        // harmlessly fleet-side.
        Request::Epoch => Response::U64(match txn {
            Some(open) => open.txn.base_epoch(),
            None => {
                // gm-lock: swap
                let host = hosted.host()?;
                host.read_view(Duration::ZERO, &mut |_| Ok(0))?
                    .1
                    .unwrap_or(0)
            }
        }),
        other => return Err(misrouted(other.name(), "control")),
    })
}
