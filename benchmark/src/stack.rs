//! The layer ladder's rungs: one loaded configuration of the repo's stack
//! per rung, driven only through public functions.
//!
//! Every rung loads the same dataset into the same engine kind and resolves
//! the same workload parameters, so one op stream replays identically at
//! each of them and a rung-to-rung difference in ns/op is the tax of the
//! layer that rung adds.

use std::sync::RwLock;
use std::time::{Duration, Instant};

use gm_net::{Fleet, FleetBackend, RemoteBackend, RemoteEngine, Server, ServerHandle};
use graphmark::core::catalog::{self, QueryId, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::model::api::LoadOptions;
use graphmark::model::{Dataset, GdbResult, GraphDb, GraphSnapshot, QueryCtx};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::shard::{ShardedBackend, ShardedDyn};
use graphmark::workload::{
    apply_write, run_backend, run_backend_sequential, Backend, LocalBackend, Mix, MixKind, Op,
    Pacing, RunReport, SharedEngine, SnapshotBackend, WorkloadConfig, WORKLOAD_SLOTS,
};

use crate::gate::{Expected, Observed};
use crate::record::{Recording, WorkerLog};
use crate::stats::checksum;

/// No op of any workload comes near this; an op that does is a failure.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Which layers sit between the caller and the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// A `Box<dyn GraphDb>` called directly: no lock, no driver.
    Bare,
    /// `LocalBackend`: the driver over one shared `RwLock`.
    Local,
    /// `SnapshotBackend` over a copy-on-write MVCC cell.
    Snap,
    /// `ShardedBackend` over an N-shard composite.
    Shard(usize),
    /// `RemoteBackend` over loopback to an in-process `Server::bind`.
    Wire,
    /// `FleetBackend` over N loopback shard servers.
    Fleet(usize),
}

impl Rung {
    /// The ladder, bottom to top; a tax is a rung minus the rung it names.
    pub const LADDER: [(&'static str, Rung); 6] = [
        ("bare", Rung::Bare),
        ("local", Rung::Local),
        ("snap", Rung::Snap),
        ("shard1", Rung::Shard(1)),
        ("wire", Rung::Wire),
        ("fleet1", Rung::Fleet(1)),
    ];
}

/// A loaded, parameter-resolved rung.
pub enum Stack {
    Bare {
        db: Box<dyn GraphDb>,
        params: ResolvedParams,
    },
    Local {
        engine: String,
        lock: SharedEngine,
        params: ResolvedParams,
    },
    Snap {
        source: Box<dyn SnapshotSource>,
        params: ResolvedParams,
    },
    Shard {
        graph: ShardedDyn,
        params: ResolvedParams,
    },
    Wire {
        server: ServerHandle,
        ctl: RemoteEngine,
    },
    Fleet {
        servers: Vec<ServerHandle>,
        fleet: Fleet,
        params: ResolvedParams,
    },
}

fn load(db: &mut dyn GraphDb, data: &Dataset) -> GdbResult<()> {
    db.bulk_load(data, &LoadOptions::default())?;
    db.sync()
}

fn resolve(data: &Dataset, seed: u64, view: &dyn GraphSnapshot) -> GdbResult<ResolvedParams> {
    Workload::choose(data, seed, WORKLOAD_SLOTS).resolve(view)
}

fn spawn_server(kind: EngineKind, shard: Option<(u32, u32)>) -> GdbResult<ServerHandle> {
    let server = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))?;
    match shard {
        Some((i, n)) => server.with_shard_identity(i, n),
        None => server,
    }
    .spawn()
}

impl Stack {
    /// Build, bulk-load and parameter-resolve one rung — the set-up a run
    /// pays outside its measured region.
    pub fn build(rung: Rung, kind: EngineKind, data: &Dataset, seed: u64) -> GdbResult<Stack> {
        Ok(match rung {
            Rung::Bare | Rung::Local => {
                let mut db = kind.make();
                load(db.as_mut(), data)?;
                let params = resolve(data, seed, db.as_ref())?;
                if rung == Rung::Bare {
                    Stack::Bare { db, params }
                } else {
                    Stack::Local {
                        engine: db.name(),
                        lock: RwLock::new(db),
                        params,
                    }
                }
            }
            Rung::Snap => {
                let source = kind.make_snapshot_source(SnapshotMode::Cow);
                source.with_write(&mut |db| load(db, data).map(|()| 0))?;
                let params = resolve(data, seed, source.snapshot()?.as_ref())?;
                Stack::Snap { source, params }
            }
            Rung::Shard(n) => {
                let mut graph = kind.make_sharded(n);
                load(&mut graph, data)?;
                let params = resolve(data, seed, &graph)?;
                Stack::Shard { graph, params }
            }
            Rung::Wire => {
                let server = spawn_server(kind, None)?;
                let mut ctl = RemoteEngine::connect(&server.addr().to_string())?;
                load(&mut ctl, data)?;
                ctl.prepare(seed, WORKLOAD_SLOTS as u32)?;
                Stack::Wire { server, ctl }
            }
            Rung::Fleet(n) => {
                let servers = (0..n)
                    .map(|i| spawn_server(kind, Some((i as u32, n as u32))))
                    .collect::<GdbResult<Vec<_>>>()?;
                let fleet = Fleet::connect(servers.iter().map(|s| s.addr().to_string()).collect())?;
                let params = fleet.setup(data, &config(MixKind::ReadOnly, seed, 1, 1))?;
                Stack::Fleet {
                    servers,
                    fleet,
                    params,
                }
            }
        })
    }

    /// Draw the workload parameters afresh from `seed` on the loaded stack.
    /// Returns whether the stack went back to freshly loaded state to do it
    /// (a fleet resolves only as part of `Fleet::setup`, which reloads).
    pub fn redraw(&mut self, data: &Dataset, seed: u64) -> GdbResult<bool> {
        match self {
            Stack::Bare { db, params } => *params = resolve(data, seed, db.as_ref())?,
            Stack::Local { lock, params, .. } => {
                let db = lock.read().expect("no writer panicked");
                *params = resolve(data, seed, db.as_ref())?
            }
            Stack::Snap { source, params } => {
                *params = resolve(data, seed, source.snapshot()?.as_ref())?
            }
            Stack::Shard { graph, params } => *params = resolve(data, seed, &*graph)?,
            Stack::Wire { ctl, .. } => ctl.prepare(seed, WORKLOAD_SLOTS as u32)?,
            Stack::Fleet { fleet, params, .. } => {
                *params = fleet.setup(data, &config(MixKind::ReadOnly, seed, 1, 1))?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Bytes the loaded engine(s) report through `space()`.
    pub fn space_bytes(&self) -> GdbResult<u64> {
        Ok(match self {
            Stack::Bare { db, .. } => db.space().total(),
            Stack::Local { lock, .. } => lock.read().expect("no writer panicked").space().total(),
            Stack::Snap { source, .. } => source.snapshot()?.space().total(),
            Stack::Shard { graph, .. } => graph.space().total(),
            Stack::Wire { ctl, .. } => ctl.space().total(),
            Stack::Fleet { servers, .. } => {
                let mut total = 0;
                for s in servers {
                    total += RemoteEngine::connect(&s.addr().to_string())?
                        .space()
                        .total();
                }
                total
            }
        })
    }

    /// Hand `f` this rung's driver backend. `strict` asks for the
    /// deterministic read path a sequential replay needs (snapshot pins that
    /// see the session's own writes). The bare rung has no backend.
    fn with_backend<R>(&self, strict: bool, f: impl FnOnce(&dyn Backend) -> R) -> R {
        match self {
            Stack::Bare { .. } => unreachable!("the bare rung is replayed, not driven"),
            Stack::Local {
                engine,
                lock,
                params,
            } => f(&LocalBackend::new(engine.clone(), lock, params, OP_TIMEOUT)),
            Stack::Snap { source, params } => {
                let b = SnapshotBackend::new(source.as_ref(), params, OP_TIMEOUT);
                f(&if strict {
                    b.with_pin_staleness(Duration::ZERO)
                } else {
                    b
                })
            }
            Stack::Shard { graph, params } => f(&ShardedBackend::new(graph, params, OP_TIMEOUT)),
            Stack::Wire { server, ctl } => {
                let b = RemoteBackend::new(server.addr().to_string(), ctl.name(), OP_TIMEOUT);
                f(&if strict { b.with_strict_reads() } else { b })
            }
            Stack::Fleet { fleet, params, .. } => f(&FleetBackend::new(fleet, params, OP_TIMEOUT)),
        }
    }

    /// Replay `cfg`'s op streams: concurrently through `run_backend`, or one
    /// worker after another through `run_backend_sequential` (on the bare
    /// rung, straight into the engine).
    pub fn drive(&mut self, cfg: &WorkloadConfig, sequential: bool) -> GdbResult<Outcome> {
        if let Stack::Bare { db, params } = self {
            return replay_bare(db.as_mut(), params, cfg);
        }
        let called = Instant::now();
        let (report, logs) = self.with_backend(sequential, |inner| {
            let rec = Recording::new(inner, cfg.ops_per_worker as usize);
            let report = if sequential {
                run_backend_sequential(&rec, "", cfg)
            } else {
                run_backend(&rec, "", cfg)
            };
            report.map(|r| (r, rec.into_logs()))
        })?;
        let call_ns = called.elapsed().as_nanos() as u64;
        Ok(Outcome::from_report(report, logs, call_ns))
    }

    /// Fill in |V| and |E| as the rung now answers them (Q8 and Q9 through
    /// one of its own sessions).
    pub fn count(&self, out: &mut Outcome) -> GdbResult<()> {
        (out.vertices, out.edges) = match self {
            Stack::Bare { db, .. } => {
                let ctx = QueryCtx::unbounded();
                (db.vertex_count(&ctx)?, db.edge_count(&ctx)?)
            }
            _ => self.with_backend(true, |b| -> GdbResult<(u64, u64)> {
                let mut s = b.open_session(0)?;
                let mut ask = |q| {
                    s.execute(Op::Read(QueryInstance::plain(q)), 0, 0)
                        .map(|r| r.cardinality)
                };
                Ok((ask(QueryId::Q8)?, ask(QueryId::Q9)?))
            })?,
        };
        Ok(())
    }

    /// Stop the servers this rung spawned and wait for their accept threads.
    pub fn shutdown(self) {
        match self {
            Stack::Wire { server, ctl } => {
                drop(ctl);
                server.shutdown();
            }
            Stack::Fleet { servers, fleet, .. } => {
                drop(fleet);
                servers.into_iter().for_each(ServerHandle::shutdown);
            }
            _ => {}
        }
    }
}

/// The driver configuration every run uses: closed loop, cardinalities
/// recorded for the correctness gate.
pub fn config(mix: MixKind, seed: u64, threads: u32, ops_per_worker: u64) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker,
        seed,
        pacing: Pacing::Closed,
        op_timeout: OP_TIMEOUT,
        record_cardinalities: true,
    }
}

/// What one replay of the op streams produced.
pub struct Outcome {
    /// The measured region: from the driver's start stamp to the last join.
    pub wall_ns: u64,
    /// Wall time of the whole driver call, session opening included.
    pub call_ns: u64,
    pub ops: u64,
    pub read_ops: u64,
    pub errors: u64,
    pub shed: u64,
    pub txn_conflicts: u64,
    pub phases: gm_obs::PhaseNanos,
    /// Per-worker result cardinalities, in issue order.
    pub cards: Vec<Vec<u64>>,
    /// Per-worker op spans recorded around `Session::execute`.
    pub logs: Vec<WorkerLog>,
    /// |V| and |E| after the replay.
    pub vertices: u64,
    pub edges: u64,
}

impl Outcome {
    fn from_report(r: RunReport, logs: Vec<WorkerLog>, call_ns: u64) -> Outcome {
        Outcome {
            wall_ns: r.wall_nanos,
            call_ns,
            ops: r.ops(),
            read_ops: r.read_ops(),
            errors: r.errors(),
            shed: r.shed(),
            txn_conflicts: r.txn_conflicts(),
            phases: r.phase_nanos(),
            cards: r.workers.into_iter().map(|w| w.cardinalities).collect(),
            logs,
            vertices: 0,
            edges: 0,
        }
    }

    /// Append a later replay on the same stack: times and counts add up,
    /// traces and logs follow on, the end state is the later one's.
    pub fn absorb(&mut self, later: Outcome) {
        self.wall_ns += later.wall_ns;
        self.call_ns += later.call_ns;
        self.ops += later.ops;
        self.read_ops += later.read_ops;
        self.errors += later.errors;
        self.shed += later.shed;
        self.txn_conflicts += later.txn_conflicts;
        self.phases.accumulate(&later.phases);
        self.cards.extend(later.cards);
        self.logs.extend(later.logs);
        (self.vertices, self.edges) = (later.vertices, later.edges);
    }

    pub fn attempted(&self) -> u64 {
        self.ops + self.errors + self.shed
    }

    /// Errored, shed and lost-commit ops.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.txn_conflicts
    }

    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }

    pub fn checksum(&self) -> u64 {
        checksum(self.cards.iter().flatten().copied())
    }

    /// What the gate judges this replay by.
    pub fn observed(&self, what: &str) -> Observed {
        Observed {
            what: what.to_string(),
            attempted: self.attempted(),
            failed: self.failed(),
            checksum: self.checksum(),
            vertices: self.vertices,
            edges: self.edges,
        }
    }
}

/// The bare rung: each worker's `Mix::sequence` straight into the engine,
/// one worker after another, with a span around every catalog call.
fn replay_bare(
    db: &mut dyn GraphDb,
    params: &ResolvedParams,
    cfg: &WorkloadConfig,
) -> GdbResult<Outcome> {
    let mix = cfg.mix.mix();
    let streams: Vec<Vec<Op>> = (0..cfg.threads as usize)
        .map(|w| mix.sequence(cfg.seed, w, cfg.ops_per_worker))
        .collect();
    let mut out = Outcome {
        wall_ns: 0,
        call_ns: 0,
        ops: 0,
        read_ops: 0,
        errors: 0,
        shed: 0,
        txn_conflicts: 0,
        phases: gm_obs::PhaseNanos::zero(),
        cards: Vec::new(),
        logs: Vec::new(),
        vertices: 0,
        edges: 0,
    };
    let started = Instant::now();
    for (w, ops) in streams.iter().enumerate() {
        let mut log = WorkerLog::new(w, ops.len());
        let mut cards = Vec::with_capacity(ops.len());
        let mut owned = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let res = match op {
                Op::Read(inst) => {
                    let ctx = QueryCtx::with_timeout(cfg.op_timeout);
                    catalog::execute_read(inst, &*db, params, &ctx)
                }
                Op::Write(wop) => apply_write(*wop, db, params, w, i as u64, &mut owned),
            };
            log.push(t, op.is_write());
            match res {
                Ok(card) => {
                    out.ops += 1;
                    out.read_ops += u64::from(!op.is_write());
                    cards.push(card);
                }
                Err(_) => {
                    out.errors += 1;
                    cards.push(graphmark::workload::ERR_CARD);
                }
            }
        }
        out.cards.push(cards);
        out.logs.push(log);
    }
    out.wall_ns = started.elapsed().as_nanos() as u64;
    out.call_ns = out.wall_ns;
    Ok(out)
}

/// The op streams' answers worked out without any backend: what the gate
/// compares every replay against. Built once per loaded dataset and told of
/// each replay in turn, it keeps the running expectation.
pub struct Oracle {
    mix: Mix,
    /// The dataset's |V| and |E| as loaded.
    base: (u64, u64),
    /// A bare engine to ask, for a read-only mix; `None` for a mix with
    /// writes, whose read answers depend on how the workers interleave.
    reference: Option<Box<dyn GraphDb>>,
    /// Expected cardinality traces so far, replay after replay, worker after
    /// worker.
    cards: Vec<u64>,
    vertices: u64,
    edges: u64,
}

impl Oracle {
    pub fn new(kind: EngineKind, data: &Dataset, mix: Mix) -> GdbResult<Oracle> {
        let reference = if mix.is_read_only() {
            let mut db = kind.make();
            load(db.as_mut(), data)?;
            Some(db)
        } else {
            None
        };
        let base = (data.vertex_count() as u64, data.edge_count() as u64);
        Ok(Oracle {
            mix,
            base,
            reference,
            cards: Vec::new(),
            vertices: base.0,
            edges: base.1,
        })
    }

    /// Account for one replay of `cfg`'s streams on the parameters drawn
    /// from `params_seed`. `reloaded` says the stack
    /// went back to freshly loaded state first. Ask the bare engine each
    /// distinct read once (a read-only stream's parameters are fixed, so one
    /// answer per query instance is the whole trace), and count what the
    /// write ops add and remove.
    pub fn replay(
        &mut self,
        data: &Dataset,
        params_seed: u64,
        cfg: &WorkloadConfig,
        reloaded: bool,
    ) -> GdbResult<()> {
        if reloaded {
            (self.vertices, self.edges) = self.base;
        }
        let streams: Vec<Vec<Op>> = (0..cfg.threads as usize)
            .map(|w| self.mix.sequence(cfg.seed, w, cfg.ops_per_worker))
            .collect();
        for ops in &streams {
            let mut owned = 0u64;
            for op in ops {
                use graphmark::workload::WriteOp::*;
                match op {
                    Op::Write(AddVertex) => self.vertices += 1,
                    Op::Write(AddEdge) => {
                        self.edges += 1;
                        owned += 1;
                    }
                    Op::Write(RemoveOwnEdge) if owned > 0 => {
                        self.edges -= 1;
                        owned -= 1;
                    }
                    // With nothing of its own to remove the op adds a vertex.
                    Op::Write(RemoveOwnEdge) => self.vertices += 1,
                    Op::Write(SetVertexProp) | Op::Read(_) => {}
                }
            }
        }
        if let Some(db) = &self.reference {
            let params = resolve(data, params_seed, db.as_ref())?;
            let ctx = QueryCtx::with_timeout(OP_TIMEOUT);
            let mut answers: Vec<(QueryInstance, u64)> = Vec::new();
            for (_, op) in self.mix.entries() {
                if let Op::Read(inst) = op {
                    let card = catalog::execute_read(inst, db.as_ref(), &params, &ctx)?;
                    answers.push((*inst, card));
                }
            }
            let answer = |op: &Op| match op {
                Op::Read(inst) => answers.iter().find(|(i, _)| i == inst).map(|(_, c)| *c),
                Op::Write(_) => None,
            };
            self.cards
                .extend(streams.iter().flatten().filter_map(answer));
        }
        Ok(())
    }

    pub fn expected(&self) -> Expected {
        Expected {
            checksum: self
                .reference
                .as_ref()
                .map(|_| checksum(self.cards.iter().copied())),
            vertices: self.vertices,
            edges: self.edges,
        }
    }
}
