//! The std-only TCP engine server.
//!
//! One [`Server`] hosts one engine behind the same `RwLock` contract the
//! in-process driver uses — concurrent connections execute reads under the
//! shared lock while writes serialize under the exclusive one — with a
//! thread-per-connection accept loop. Each connection is a plain
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
//! [`crate::client::run_remote`]).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{
    lockwait, Dataset, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx, SharedGraph, Vid,
};
use gm_mvcc::{write_once, SnapshotSource, SourceFactory, WriteTxn};
use gm_obs::{phase, trace, Counter, Histo, Phase};
use gm_workload::{apply_write, Op};

use crate::proto::{FrameKind, Request, Response, MAGIC, PROTO_VERSION};
use crate::wire::{FrameReader, FrameWriter};

/// Factory producing fresh, empty engines — what `Reset` swaps in.
pub type EngineFactory = Box<dyn Fn() -> Box<dyn GraphDb> + Send + Sync>;

/// Factory producing fresh, empty internally-synchronized graphs
/// ([`SharedGraph`], e.g. `gm-shard`'s per-partition-locked composite).
pub type SharedFactory = Box<dyn Fn() -> Box<dyn SharedGraph> + Send + Sync>;

/// The two hosting modes a server can run in.
///
/// * `Locked` — the original contract: one engine behind an `RwLock`, reads
///   under the shared lock (a long remote scan blocks every remote writer).
/// * `Snapshot` — a `gm-mvcc` [`SnapshotSource`]: every read request pins an
///   immutable epoch and executes against it, so remote scans never block
///   remote writers, and `ExecOp` responses carry the serving epoch.
/// * `Shared` — an internally-synchronized [`SharedGraph`] (`gm-shard`'s
///   per-partition-locked composite): reads *and* writes take only the
///   outer lock's **shared** side (the exclusive side exists solely for
///   `Reset`'s engine swap), so concurrent remote writers landing on
///   different shards do not serialize in the server — the composite's own
///   per-shard locks are the only synchronization on the op path.
enum HostedEngine {
    Locked {
        factory: EngineFactory,
        engine: RwLock<Box<dyn GraphDb>>,
    },
    Snapshot {
        factory: SourceFactory,
        source: RwLock<Box<dyn SnapshotSource>>,
    },
    Shared {
        factory: SharedFactory,
        graph: RwLock<Box<dyn SharedGraph>>,
    },
}

/// A read execution view: the shared-lock guard, a pinned epoch, or a
/// swap-guard over an internally-synchronized graph.
enum ReadView<'a> {
    Guard(Ranked<RwLockReadGuard<'a, Box<dyn GraphDb>>>),
    Snap(Box<dyn GraphSnapshot>),
    Shared(Ranked<RwLockReadGuard<'a, Box<dyn SharedGraph>>>),
}

impl ReadView<'_> {
    /// The read-only engine surface to execute against.
    fn snap(&self) -> &dyn GraphSnapshot {
        match self {
            ReadView::Guard(guard) => {
                let db: &dyn GraphDb = &***guard;
                db
            }
            ReadView::Snap(snap) => snap.as_ref(),
            ReadView::Shared(guard) => {
                let g: &dyn SharedGraph = &***guard;
                g
            }
        }
    }

    /// Serving epoch: `Some` only for pinned snapshot views.
    fn epoch(&self) -> Option<u64> {
        match self {
            ReadView::Guard(_) | ReadView::Shared(_) => None,
            ReadView::Snap(snap) => Some(snap.epoch()),
        }
    }
}

/// Everything the connection handlers share.
struct Hosted {
    engine: HostedEngine,
    /// Dataset retained from the last `BulkLoad`, for `Prepare`.
    data: Mutex<Option<Dataset>>,
    /// Workload parameters resolved by `Prepare`, snapshotted per op.
    params: RwLock<Option<Arc<ResolvedParams>>>,
    /// Bumped by every `Reset`. Connections stamp their `owned_edges` pool
    /// with the generation it was filled under and discard it when the
    /// engine has since been replaced — a stale `Eid` from a discarded
    /// engine must never delete an edge of the freshly loaded one.
    generation: AtomicU64,
    /// Fleet identity `(shard_id, fleet_size)` echoed in every `HelloAck`
    /// so a fleet client can verify it dialed the shard it routed to.
    shard: Option<(u32, u32)>,
}

impl Hosted {
    fn poisoned(side: &str) -> GdbError {
        GdbError::Poisoned(format!(
            "server: engine {side} lock poisoned by a panicking writer"
        ))
    }

    fn engine_name(&self) -> GdbResult<String> {
        Ok(self.read_view()?.snap().name())
    }

    /// A read view of the hosted engine: the shared-lock guard in locked
    /// mode, a freshly pinned (strict, read-your-writes) epoch in snapshot
    /// mode. Used by the primitive `GraphDb` frames, where a client issuing
    /// `add_vertex` then `vertex_count` on one connection must see its own
    /// write.
    fn read_view(&self) -> GdbResult<ReadView<'_>> {
        match &self.engine {
            HostedEngine::Locked { engine, .. } => {
                // gm-lock: driver
                let t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine read");
                Ok(ReadView::Guard(Ranked::new(
                    lockwait::timed(|| engine.read()).map_err(|_| Self::poisoned("read"))?,
                    t,
                )))
            }
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver transient
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source read pin");
                Ok(ReadView::Snap(
                    lockwait::timed(|| source.read())
                        .map_err(|_| Self::poisoned("source read"))?
                        .snapshot()?,
                ))
            }
            HostedEngine::Shared { graph, .. } => {
                // gm-lock: driver
                let t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared read");
                Ok(ReadView::Shared(Ranked::new(
                    lockwait::timed(|| graph.read()).map_err(|_| Self::poisoned("shared read"))?,
                    t,
                )))
            }
        }
    }

    /// Like [`Hosted::read_view`], but in snapshot mode the pin tolerates
    /// bounded staleness (`gm-workload`'s pin cadence), so the `ExecOp` hot
    /// path never serializes behind per-request epoch publishes.
    fn read_view_recent(&self) -> GdbResult<ReadView<'_>> {
        match &self.engine {
            HostedEngine::Locked { .. } | HostedEngine::Shared { .. } => self.read_view(),
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver transient
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source recent pin");
                Ok(ReadView::Snap(
                    lockwait::timed(|| source.read())
                        .map_err(|_| Self::poisoned("source read"))?
                        .snapshot_recent(gm_workload::SNAPSHOT_PIN_STALENESS)?,
                ))
            }
        }
    }

    /// Run one mutation against the hosted engine (exclusive lock in locked
    /// mode, the source's write path in snapshot mode).
    fn with_engine_write<R>(
        &self,
        f: impl FnOnce(&mut dyn GraphDb) -> GdbResult<R>,
    ) -> GdbResult<R> {
        match &self.engine {
            HostedEngine::Locked { engine, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine write");
                let mut db =
                    lockwait::timed(|| engine.write()).map_err(|_| Self::poisoned("write"))?;
                f(db.as_mut())
            }
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source write");
                let source =
                    lockwait::timed(|| source.read()).map_err(|_| Self::poisoned("source read"))?;
                write_once(f, |w| source.with_write(w))
            }
            // The graph synchronizes internally (per-shard locks): writes
            // take only the *shared* side of the swap lock, so two remote
            // writers landing on different shards run in parallel.
            HostedEngine::Shared { graph, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared write");
                let graph =
                    lockwait::timed(|| graph.read()).map_err(|_| Self::poisoned("shared read"))?;
                write_once(f, |w| graph.with_write(w))
            }
        }
    }

    /// Replace the hosted engine with a fresh one from its factory.
    fn reset_engine(&self) -> GdbResult<()> {
        match &self.engine {
            HostedEngine::Locked { factory, engine } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine reset");
                let mut db = engine.write().map_err(|_| Self::poisoned("write"))?;
                *db = factory();
            }
            HostedEngine::Snapshot { factory, source } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source reset");
                let mut src = source.write().map_err(|_| Self::poisoned("source write"))?;
                *src = factory();
            }
            HostedEngine::Shared { factory, graph } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared reset");
                let mut g = graph.write().map_err(|_| Self::poisoned("shared write"))?;
                *g = factory();
            }
        }
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
    /// writes and vice versa). One engine is created immediately so the
    /// server is usable before any `Reset`.
    pub fn bind(addr: &str, factory: EngineFactory) -> GdbResult<Server> {
        let engine = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Locked {
                factory,
                engine: RwLock::new(engine),
            },
        )
    }

    /// Bind to `addr` hosting a `gm-mvcc` snapshot source: read requests pin
    /// an immutable epoch (remote scans never block remote writers) and
    /// `ExecOp` responses carry the serving epoch.
    pub fn bind_snapshot(addr: &str, factory: SourceFactory) -> GdbResult<Server> {
        let source = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Snapshot {
                factory,
                source: RwLock::new(source),
            },
        )
    }

    /// Bind to `addr` hosting an internally-synchronized [`SharedGraph`]
    /// (e.g. `gm-shard`'s per-partition-locked composite): both reads and
    /// writes take only the shared side of the outer swap lock, so the
    /// hosted graph's own locks are the only synchronization on the op
    /// path — one server, many shards.
    pub fn bind_sharded(addr: &str, factory: SharedFactory) -> GdbResult<Server> {
        let graph = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Shared {
                factory,
                graph: RwLock::new(graph),
            },
        )
    }

    fn bind_hosted(addr: &str, engine: HostedEngine) -> GdbResult<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| GdbError::Io(format!("binding {addr}: {e}")))?;
        Ok(Server {
            listener,
            hosted: Arc::new(Hosted {
                engine,
                data: Mutex::new(None),
                params: RwLock::new(None),
                generation: AtomicU64::new(0),
                shard: None,
            }),
            stop: Arc::new(AtomicBool::new(false)),
        })
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
            let rsp = match hosted.engine_name() {
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

/// Open an epoch-pinned write transaction on this connection (v7). Only
/// snapshot hosting has the MVCC machinery for it.
fn txn_begin(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    if txn.is_some() {
        return Err(GdbError::Invalid(
            "TxnBegin with a transaction already open on this connection".into(),
        ));
    }
    match &hosted.engine {
        HostedEngine::Snapshot { source, .. } => {
            // gm-lock: driver transient
            let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs txn begin");
            let source =
                lockwait::timed(|| source.read()).map_err(|_| Hosted::poisoned("source read"))?;
            let opened = WriteTxn::begin(&**source)?;
            let epoch = opened.base_epoch();
            *txn = Some(ConnTxn {
                txn: opened,
                generation: hosted.generation.load(Ordering::SeqCst),
            });
            Ok(Response::TxnBegun { epoch })
        }
        _ => Err(GdbError::Unsupported(
            "write transactions require snapshot hosting".into(),
        )),
    }
}

/// Validate and publish the connection's open transaction (v7). The write
/// set is consumed either way — a conflicting transaction cannot be
/// retried, only restarted against a fresh epoch.
fn txn_commit(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    let state = txn.take().ok_or_else(|| {
        GdbError::Invalid("TxnCommit without an open transaction on this connection".into())
    })?;
    if state.generation != hosted.generation.load(Ordering::SeqCst) {
        return Err(GdbError::TxnConflict(
            "the hosted engine was reset after this transaction began".into(),
        ));
    }
    match &hosted.engine {
        HostedEngine::Snapshot { source, .. } => {
            // gm-lock: driver transient
            let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs txn commit");
            let source =
                lockwait::timed(|| source.read()).map_err(|_| Hosted::poisoned("source read"))?;
            let ops = state.txn.commit(&**source)?;
            Ok(Response::TxnCommitted {
                ops,
                epoch: source.current_epoch(),
            })
        }
        _ => Err(GdbError::Unsupported(
            "write transactions require snapshot hosting".into(),
        )),
    }
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
fn misrouted(req: &Request, dispatcher: &str) -> GdbError {
    GdbError::Invalid(format!("{} frame has no {dispatcher} arm", req.name()))
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
        Request::Neighbors { v, dir, label, t } => {
            vids(g.neighbors(Vid(v), dir, label.as_deref(), &ctx_for(t))?)
        }
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
        other => return Err(misrouted(&other, "read")),
    })
}

/// The [`FrameKind::Write`] frames → `GraphDb` calls, written once: `db` is
/// the hosted engine under its write path, or the connection's open
/// transaction (writes buffer; ids of entities created there are
/// placeholders until commit).
fn answer_write(db: &mut dyn GraphDb, req: Request) -> GdbResult<Response> {
    Ok(match req {
        Request::AddVertex { label, props } => Response::U64(db.add_vertex(&label, &props)?.0),
        Request::AddEdge {
            src,
            dst,
            label,
            props,
        } => Response::U64(db.add_edge(Vid(src), Vid(dst), &label, &props)?.0),
        Request::SetVertexProp { v, name, value } => {
            db.set_vertex_property(Vid(v), &name, value)?;
            Response::Unit
        }
        Request::SetEdgeProp { e, name, value } => {
            db.set_edge_property(Eid(e), &name, value)?;
            Response::Unit
        }
        Request::RemoveVertex(v) => {
            db.remove_vertex(Vid(v))?;
            Response::Unit
        }
        Request::RemoveEdge(e) => {
            db.remove_edge(Eid(e))?;
            Response::Unit
        }
        Request::RemoveVertexProp { v, name } => {
            Response::OptValue(db.remove_vertex_property(Vid(v), &name)?)
        }
        Request::RemoveEdgeProp { e, name } => {
            Response::OptValue(db.remove_edge_property(Eid(e), &name)?)
        }
        Request::CreateVertexIndex { prop } => {
            db.create_vertex_index(&prop)?;
            Response::Unit
        }
        Request::Sync => {
            db.sync()?;
            Response::Unit
        }
        other => return Err(misrouted(&other, "write")),
    })
}

fn execute_request(
    hosted: &Hosted,
    req: Request,
    owned_edges: &mut OwnedEdges,
    txn: &mut Option<ConnTxn>,
) -> GdbResult<Response> {
    // Primitives go to the connection's open transaction when there is
    // one, else to the hosted engine: a read view per request (in snapshot
    // mode a freshly pinned epoch, so a long scan here cannot block a
    // writer on another connection) or the engine's write path.
    match (req.kind(), txn.as_mut()) {
        (FrameKind::Read, Some(open)) => return answer_read(&open.txn, req),
        (FrameKind::Read, None) => return answer_read(hosted.read_view()?.snap(), req),
        (FrameKind::Write, Some(open)) => return answer_write(&mut open.txn, req),
        (FrameKind::Write, None) => return hosted.with_engine_write(|db| answer_write(db, req)),
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
            hosted.reset_engine()?;
            *hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))? = None;
            *hosted
                .params
                .write()
                .map_err(|_| Hosted::poisoned("params"))? = None;
            hosted.generation.fetch_add(1, Ordering::SeqCst);
            Response::Unit
        }
        Request::BulkLoad { opts, data } => {
            let stats = hosted.with_engine_write(|db| db.bulk_load(&data, &opts))?;
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
            let params = workload.resolve(hosted.read_view()?.snap())?;
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
            let (card, epoch) = match op {
                Op::Read(inst) => {
                    let ctx = ctx_for(timeout_micros);
                    // Strict pins (sequential replays) must read their own
                    // earlier writes; concurrent drivers take the
                    // group-committed fast path.
                    let view = {
                        let _pin = phase::span(Phase::SnapshotPin);
                        if strict {
                            hosted.read_view()?
                        } else {
                            hosted.read_view_recent()?
                        }
                    };
                    let _exec = phase::span(Phase::EngineExec);
                    let card = catalog::execute_read(&inst, view.snap(), &params, &ctx)?;
                    (card, view.epoch())
                }
                Op::Write(wop) => {
                    // The generation check of `current()` must happen while
                    // holding the engine write path: a `Reset` interleaving
                    // between the check and the write would otherwise apply
                    // a pre-reset edge pool to the fresh engine (and stale
                    // eids alias live edges once ids restart at 0).
                    let _exec = phase::span(Phase::EngineExec);
                    let card = hosted.with_engine_write(|db| {
                        apply_write(
                            wop,
                            db,
                            &params,
                            worker as usize,
                            op_index,
                            owned_edges.current(hosted),
                        )
                    })?;
                    // Writes produce the next epoch, they don't observe one.
                    (card, None)
                }
            };
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
        // transaction, the epoch its reads are pinned to. Locked and shared
        // hosting have no epochs — report 0, which min-reduces harmlessly
        // fleet-side.
        Request::Epoch => Response::U64(match txn {
            Some(open) => open.txn.base_epoch(),
            None => hosted.read_view()?.epoch().unwrap_or(0),
        }),
        other => return Err(misrouted(&other, "control")),
    })
}
