//! The concurrent multi-client driver.
//!
//! N worker threads replay deterministic op streams against one graph. Each
//! worker owns its RNG (seeded from the run seed and the worker index) and
//! its latency histogram, so the measured path is free of cross-thread
//! writes entirely; histograms and throughput counters merge by plain
//! addition after the threads join ("lock-free" structurally — there is
//! nothing to lock).
//!
//! Two pacing models:
//!
//! * **closed-loop** — each worker issues its next op as soon as the
//!   previous one returns (throughput-bound, the classic benchmark client);
//! * **open-loop** — ops arrive on a fixed global schedule (`ops_per_sec`)
//!   dealt round-robin to workers, and latency is measured from *scheduled
//!   arrival* to completion, so queueing delay is visible when the engine
//!   cannot keep up (the coordinated-omission-free measurement the LDBC
//!   driver papers argue for).
//!
//! Open-loop pacing carries an optional **backlog bound**
//! ([`Pacing::Open::max_lateness`]): when a worker reaches an arrival whose
//! schedule has already slipped further into the past than the bound, the op
//! is **shed** — counted in [`WorkerStats::shed`] instead of executed — so an
//! overload run terminates in bounded wall-clock time with honest latency
//! tails instead of an ever-growing arrival backlog. Shed ops never enter the
//! latency histogram (they have no completion), and in a recorded cardinality
//! trace they appear as [`SHED_CARD`] placeholders so the executed positions
//! still line up one-to-one with the deterministic op sequence.
//!
//! The measured loop is **transport-agnostic**: a [`Backend`] hands every
//! worker a [`Session`] that executes one op at a time, and [`run_backend`]
//! (or its sequential reference, [`run_backend_sequential`]) drives the same
//! pacing/shedding/histogram machinery over whatever the sessions talk to.
//! In process that is a [`HostBackend`](crate::HostBackend) over one of the
//! [`Host`](crate::Host)s (a locked engine, a snapshot source, a sharded
//! composite); `gm-net`'s per-worker TCP connections to an engine server and
//! its shard fleet are the others — closed-loop, open-loop, and
//! bounded-overload pacing all work unchanged over the wire.

use std::time::{Duration, Instant};

use gm_core::params::ResolvedParams;
use gm_core::report::{Measurement, Outcome, RunMode};
use gm_core::summary::ScalingRow;
use gm_model::{Eid, GdbError, GdbResult, GraphDb, Value};
use gm_obs::phase::{Phase, PhaseNanos};
use gm_obs::trace::{self, TailGate};
use gm_obs::HistSnapshot;

use crate::mix::{Mix, MixKind, Op, WriteOp};

/// Cardinality recorded for an op that returned an error.
pub const ERR_CARD: u64 = u64::MAX;

/// Cardinality recorded for an op shed by open-loop backpressure. Using a
/// placeholder (instead of omitting the entry) keeps trace positions aligned
/// with the deterministic op sequence, so executed positions of an overloaded
/// read-only run can still be compared against a sequential replay.
pub const SHED_CARD: u64 = u64::MAX - 1;

/// How stale a snapshot-mode read may be: the driver pins epochs with
/// [`SnapshotSource::snapshot_recent`](gm_mvcc::SnapshotSource::snapshot_recent) at this bound, so epoch publishes
/// (after each, the next `CowCell` write clones the graph) are rate-limited
/// to at most one per this interval no matter how hot the pin-per-read path
/// runs. Reads still observe exactly one consistent
/// epoch — just one that may lag concurrent writers by up to this much,
/// which is precisely how real MVCC stores expose the latest *committed*
/// version rather than chasing in-flight writes.
pub const SNAPSHOT_PIN_STALENESS: Duration = Duration::from_micros(250);

/// How many victim/pair slots a driver run pre-draws
/// ([`Workload::choose`](gm_core::params::Workload::choose)'s `slots` argument). Remote backends must prepare
/// their server-side parameters with the same value, or the deterministic op
/// streams would resolve against different victim pools.
pub const WORKLOAD_SLOTS: usize = 16;

/// What one executed op produced: its result cardinality plus, when the
/// backend serves reads from pinned MVCC snapshots, the **epoch** of the
/// graph version that answered. Epochs let the driver tag every latency
/// sample with its graph version and detect non-monotone views (a read
/// racing an engine `Reset` reports a *lower* epoch than the worker already
/// observed — see [`WorkerStats::epoch_skew`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Result cardinality (rows/elements produced).
    pub cardinality: u64,
    /// Serving epoch for snapshot-backed reads; `None` for locked-mode
    /// reads (no epochs) and for writes (they produce the next epoch, they
    /// don't observe one).
    pub epoch: Option<u64>,
    /// Where this op's time went, split into the gm-obs phases: lock wait
    /// (queueing on engine locks, always recorded), and — under
    /// `GM_OBS=phases` — engine execution, snapshot pin, clone/publish, and
    /// (for remote backends) wire encode and socket I/O. Self-time
    /// attribution: nested spans subtract from their parent, so the vector
    /// sums to at most the op's end-to-end latency.
    pub phases: PhaseNanos,
}

impl OpResult {
    /// An epoch-less result (locked mode, writes) with no recorded phases.
    pub fn plain(cardinality: u64) -> OpResult {
        OpResult {
            cardinality,
            epoch: None,
            phases: PhaseNanos::zero(),
        }
    }

    /// Attach a measured lock wait.
    pub fn with_lock_wait(mut self, nanos: u64) -> OpResult {
        self.phases.set(Phase::LockWait, nanos);
        self
    }

    /// Attach the whole per-op phase vector.
    pub fn with_phases(mut self, phases: PhaseNanos) -> OpResult {
        self.phases = phases;
        self
    }

    /// Nanoseconds this op spent **waiting to acquire engine locks** (the
    /// shared `RwLock`, an MVCC cell's writer mutex or publish lock, or
    /// `gm-shard`'s per-partition locks — whatever the backend's path runs
    /// through `gm_model::lockwait`). Queueing, not hold time: the single
    /// number that separates "the engine is slow" from "the op serialized
    /// behind other clients", which is exactly what the sharded-vs-single
    /// lock comparison measures.
    pub fn lock_wait_nanos(&self) -> u64 {
        self.phases.get(Phase::LockWait)
    }
}

/// A per-worker execution endpoint: the only thing the measured loop knows
/// about the engine. One session belongs to exactly one worker thread and is
/// used for that worker's whole op sequence, so implementations may hold
/// per-worker state (RNG-free — op choice stays in the driver — but e.g. the
/// edges this worker created, or a dedicated TCP connection).
pub trait Session {
    /// Execute one op and return its [`OpResult`].
    ///
    /// `worker` and `op_index` parameterize writes (worker-unique property
    /// names, victim rotation) exactly as the shared-lock driver does, so a
    /// remote server can replay the identical mutation.
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult>;

    /// Called once after the worker's last op, before its stats are
    /// returned. Sessions that buffer work (e.g. a fleet session batching
    /// writes per shard, or a transactional session with an open write
    /// transaction) flush here so every queued mutation lands inside the
    /// measured run; the default is a no-op.
    fn finish(&mut self) -> GdbResult<()> {
        Ok(())
    }

    /// How many write-transaction commits this session lost to
    /// first-committer-wins validation over its whole op sequence. Only
    /// transactional sessions override this; everything else reports 0.
    fn txn_conflicts(&self) -> u64 {
        0
    }
}

/// A transport over which the driver reaches an engine: in process through
/// a [`HostBackend`](crate::HostBackend) over any [`Host`](crate::Host), or
/// across a socket (`gm-net`).
/// `open_session` is called on the worker's own thread, so a backend may do
/// per-worker setup there (e.g. dial one connection per client).
pub trait Backend: Sync {
    /// Engine display name for the report.
    fn engine(&self) -> String;

    /// Read-path isolation label for the report (`"locked"` unless the
    /// backend overrides it — snapshot backends report
    /// `"snapshot-cow"`/`"snapshot-sharded-cow"`, remote ones `"remote"`).
    fn isolation(&self) -> String {
        "locked".into()
    }

    /// Open worker `worker`'s session.
    fn open_session(&self, worker: usize) -> GdbResult<Box<dyn Session + '_>>;
}

/// How ops are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Issue the next op when the previous one completes.
    Closed,
    /// Fixed-rate arrivals across all workers; latency includes queueing.
    Open {
        /// Aggregate arrival rate over all workers.
        ops_per_sec: f64,
        /// Arrival-backlog bound: when a worker reaches an op whose scheduled
        /// arrival is further in the past than this, the op is shed (counted,
        /// not executed). `None` disables shedding — the legacy unbounded
        /// behavior, where an overloaded run's backlog (and wall-clock time)
        /// grows without limit.
        max_lateness: Option<Duration>,
    },
}

impl Pacing {
    /// Unbounded open-loop pacing at `ops_per_sec` aggregate arrivals.
    pub fn open(ops_per_sec: f64) -> Pacing {
        Pacing::Open {
            ops_per_sec,
            max_lateness: None,
        }
    }

    /// Open-loop pacing that sheds any arrival running later than
    /// `max_lateness` behind its schedule.
    pub fn open_bounded(ops_per_sec: f64, max_lateness: Duration) -> Pacing {
        Pacing::Open {
            ops_per_sec,
            max_lateness: Some(max_lateness),
        }
    }

    /// The configured arrival rate (`None` for closed-loop pacing).
    pub fn offered_rate(&self) -> Option<f64> {
        match self {
            Pacing::Closed => None,
            Pacing::Open { ops_per_sec, .. } => Some(*ops_per_sec),
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Scenario shape.
    pub mix: MixKind,
    /// Worker (client) thread count.
    pub threads: u32,
    /// Ops each worker issues.
    pub ops_per_worker: u64,
    /// Run seed: fixes every worker's op sequence.
    pub seed: u64,
    /// Closed- or open-loop pacing.
    pub pacing: Pacing,
    /// Per-op cooperative deadline for **read** ops. Writes are point
    /// operations whose engine API carries no `QueryCtx`, so they are not
    /// deadline-checked.
    pub op_timeout: Duration,
    /// Record each op's result cardinality (for determinism checks).
    pub record_cardinalities: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mix: MixKind::Mixed,
            threads: 4,
            ops_per_worker: 256,
            seed: 42,
            pacing: Pacing::Closed,
            op_timeout: Duration::from_secs(5),
            record_cardinalities: false,
        }
    }
}

/// Per-worker results, merged lock-free (by plain addition) after the join.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Ops that completed.
    pub ops: u64,
    /// Completed ops that were reads (the isolation comparison's metric:
    /// snapshot reads never block behind writers, so reads/s keeps scaling
    /// where the locked read path flattens under write-heavy mixes).
    pub read_ops: u64,
    /// Ops that returned an error (timeouts included).
    pub errors: u64,
    /// Ops shed by open-loop backpressure (scheduled arrival fell further
    /// behind than [`Pacing::Open::max_lateness`]); never executed, never in
    /// the histogram. Always 0 for closed-loop or unbounded open-loop runs.
    pub shed: u64,
    /// Ops whose serving epoch was **lower** than the epoch the worker's
    /// previous read observed — the signature of a read racing an engine
    /// replacement (a remote `Reset` restarts epochs at 0), as opposed to a
    /// genuine engine error. Counted **once per op** against the epoch the
    /// op actually followed: after a drop the worker adopts the restarted
    /// regime, so one reset is one skew event, not one per remaining read.
    /// Always 0 for in-process snapshot runs (epochs are monotone per
    /// source) and for locked runs (no epochs at all).
    pub epoch_skew: u64,
    /// Write transactions this worker's session committed that lost
    /// first-committer-wins validation: the buffered write set was discarded
    /// whole and the session carried on. Not an op error — the ops executed
    /// and are counted in [`WorkerStats::ops`]; the *commit* lost a race —
    /// so conflicts get their own counter. Always 0 outside transactional
    /// session mode ([`HostBackend::with_txn_ops`](crate::HostBackend::with_txn_ops)).
    pub txn_conflicts: u64,
    /// Per-phase nanosecond totals over this worker's completed ops: lock
    /// wait (always recorded), plus engine exec, snapshot pin,
    /// clone/publish, and wire phases under `GM_OBS=phases` (see
    /// [`OpResult::phases`]). Errored ops do not contribute (their result —
    /// and its phase vector — is discarded with them).
    pub phases: PhaseNanos,
    /// This worker's latency histogram.
    pub hist: HistSnapshot,
    /// Result cardinalities in issue order (empty unless
    /// [`WorkloadConfig::record_cardinalities`]; errors record [`ERR_CARD`]).
    pub cardinalities: Vec<u64>,
}

/// The outcome of one driver run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine name.
    pub engine: String,
    /// Dataset name.
    pub dataset: String,
    /// Mix name.
    pub mix: String,
    /// Read-path isolation label ([`Backend::isolation`]).
    pub isolation: String,
    /// Worker count.
    pub threads: u32,
    /// Configured open-loop arrival rate (`None` for closed-loop runs):
    /// the *offered* rate, to be read against the *achieved* rate
    /// [`RunReport::throughput`].
    pub offered_ops_per_sec: Option<f64>,
    /// Wall-clock time of the measured region (threads running).
    pub wall_nanos: u64,
    /// Per-worker stats.
    pub workers: Vec<WorkerStats>,
    /// All workers' histograms merged.
    pub hist: HistSnapshot,
}

impl RunReport {
    /// Total completed ops.
    pub fn ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }

    /// Total completed read ops.
    pub fn read_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.read_ops).sum()
    }

    /// Total errored ops.
    pub fn errors(&self) -> u64 {
        self.workers.iter().map(|w| w.errors).sum()
    }

    /// Total ops shed by open-loop backpressure.
    pub fn shed(&self) -> u64 {
        self.workers.iter().map(|w| w.shed).sum()
    }

    /// Total reads that observed a non-monotone epoch (see
    /// [`WorkerStats::epoch_skew`]).
    pub fn epoch_skew(&self) -> u64 {
        self.workers.iter().map(|w| w.epoch_skew).sum()
    }

    /// Total write-transaction commits that lost first-committer-wins
    /// validation (see [`WorkerStats::txn_conflicts`]).
    pub fn txn_conflicts(&self) -> u64 {
        self.workers.iter().map(|w| w.txn_conflicts).sum()
    }

    /// Total nanoseconds completed ops spent waiting on engine locks.
    pub fn lock_wait_nanos(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.phases.get(Phase::LockWait))
            .sum()
    }

    /// Per-phase nanosecond totals over all workers' completed ops.
    pub fn phase_nanos(&self) -> PhaseNanos {
        let mut total = PhaseNanos::zero();
        for w in &self.workers {
            total.accumulate(&w.phases);
        }
        total
    }

    /// Completed ops per wall-clock second (the achieved rate).
    pub fn throughput(&self) -> f64 {
        self.scaling_row().throughput()
    }

    /// Errored ops as a fraction of all issued (non-shed) ops.
    pub fn error_rate(&self) -> f64 {
        let issued = self.ops() + self.errors();
        if issued == 0 {
            0.0
        } else {
            self.errors() as f64 / issued as f64
        }
    }

    /// The row this run contributes to the concurrency figure.
    pub fn scaling_row(&self) -> ScalingRow {
        let phases = self.phase_nanos();
        ScalingRow {
            engine: self.engine.clone(),
            mix: self.mix.clone(),
            isolation: self.isolation.clone(),
            threads: self.threads,
            ops: self.ops(),
            read_ops: self.read_ops(),
            errors: self.errors(),
            shed: self.shed(),
            epoch_skew: self.epoch_skew(),
            txn_conflicts: self.txn_conflicts(),
            lock_wait_nanos: phases.get(Phase::LockWait),
            engine_exec_nanos: phases.get(Phase::EngineExec),
            snapshot_pin_nanos: phases.get(Phase::SnapshotPin),
            clone_publish_nanos: phases.get(Phase::ClonePublish),
            wire_encode_nanos: phases.get(Phase::WireEncode),
            wire_io_nanos: phases.get(Phase::WireIo),
            offered_ops_per_sec: self.offered_ops_per_sec,
            wall_nanos: self.wall_nanos,
            p50_nanos: self.hist.p50(),
            p95_nanos: self.hist.p95(),
            p99_nanos: self.hist.p99(),
            max_nanos: self.hist.max_nanos(),
            p99_exemplar: self.hist.p99_exemplar(),
        }
    }

    /// A `core::report` row so concurrency runs flow through the existing
    /// rendering machinery next to the paper's figures. A run where no op
    /// succeeded reports as failed, a run with *any* errored ops reports as
    /// failed with its error rate, and a run that shed arrivals reports as
    /// failed with its shed fraction — a 99%-errors (or mostly-shed
    /// overload) run must not render identically to a clean one. Open-loop
    /// runs carry their offered rate in the query label so measurements at
    /// different rates do not collide in the report matrix.
    pub fn to_measurement(&self) -> Measurement {
        let (ops, errors, shed) = (self.ops(), self.errors(), self.shed());
        let mut problems = Vec::new();
        if errors > 0 {
            problems.push(format!(
                "{errors} of {} issued ops errored ({:.1}%)",
                ops + errors,
                self.error_rate() * 100.0
            ));
        }
        if shed > 0 {
            problems.push(format!(
                "shed {shed} of {} scheduled arrivals ({:.1}%)",
                ops + errors + shed,
                self.scaling_row().shed_fraction() * 100.0
            ));
        }
        let outcome = if problems.is_empty() {
            Outcome::Completed
        } else if ops == 0 {
            Outcome::Failed(format!("no op completed: {}", problems.join("; ")))
        } else {
            Outcome::Failed(problems.join("; "))
        };
        // Non-locked isolation is part of the label so a locked and a
        // snapshot run of the same (mix, threads) never collide in the
        // report matrix; locked keeps the historical label shape.
        let iso = if self.isolation == "locked" {
            String::new()
        } else {
            format!("[{}]", self.isolation)
        };
        let query = match self.offered_ops_per_sec {
            Some(rate) => format!("WL:{}@t{}@{rate:.0}/s{iso}", self.mix, self.threads),
            None => format!("WL:{}@t{}{iso}", self.mix, self.threads),
        };
        Measurement {
            engine: self.engine.clone(),
            dataset: self.dataset.clone(),
            query,
            mode: RunMode::Batch,
            outcome,
            nanos: self.wall_nanos,
            cardinality: Some(self.ops()),
        }
    }

    /// Concatenated per-worker cardinality traces (worker order), for
    /// determinism comparisons.
    pub fn cardinality_trace(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for w in &self.workers {
            out.extend_from_slice(&w.cardinalities);
        }
        out
    }
}

/// Run the configured workload over an arbitrary [`Backend`] with
/// `cfg.threads` concurrent workers. Each worker opens its own session on
/// its own thread, then replays its deterministic op sequence under the
/// configured pacing. The backend is expected to be fully set up (engine
/// loaded, parameters resolved) before this is called — setup, including
/// session opening (a TCP dial + handshake for remote backends), stays
/// outside the measured region, as §4.2 prescribes: the clock starts, and
/// the open-loop arrival schedule is anchored, only after every worker has
/// its session.
pub fn run_backend(
    backend: &dyn Backend,
    dataset: &str,
    cfg: &WorkloadConfig,
) -> GdbResult<RunReport> {
    validate(cfg)?;
    let engine = backend.engine();
    let mix = cfg.mix.mix();
    // All workers open their sessions, rendezvous at the barrier, and only
    // then does the coordinator stamp the shared start instant — so session
    // setup cost can never leak into wall time, latency samples, or the
    // arrival schedule (a slow dial would otherwise make the earliest
    // scheduled arrivals spuriously late, or even shed).
    let barrier = std::sync::Barrier::new(cfg.threads as usize + 1);
    let start_cell: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    // One tail gate per run, shared by every worker: the moving tail
    // threshold adapts to the run's own latency regime, and sharing it means
    // "tail" means the same thing across workers.
    let gate = TailGate::new();
    let joined: Vec<GdbResult<WorkerStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads as usize)
            .map(|w| {
                let mix = &mix;
                let barrier = &barrier;
                let start_cell = &start_cell;
                let gate = &gate;
                s.spawn(move || {
                    let session = backend.open_session(w);
                    // Two barrier rounds, reached even on failure (the
                    // coordinator and the other workers are waiting): round
                    // one declares "my session is open", round two releases
                    // everyone after the coordinator stamped the start.
                    barrier.wait();
                    barrier.wait();
                    let start = *start_cell.get().expect("start stamped before release");
                    let mut session = session?;
                    worker_loop(w, session.as_mut(), mix, cfg, start, gate)
                })
            })
            .collect();
        barrier.wait(); // round 1: every session is open (or failed)
        let _ = start_cell.set(Instant::now());
        barrier.wait(); // round 2: release the workers into the measured region
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                // A worker that panicked (almost certainly inside an engine
                // write, poisoning the shared lock) aborts the whole run:
                // the engine may be half-mutated, so no further measurement
                // against it is trustworthy.
                h.join().unwrap_or_else(|_| {
                    Err(GdbError::Poisoned(format!(
                        "worker {w} panicked mid-run; engine state is unreliable"
                    )))
                })
            })
            .collect()
    });
    let wall_nanos = start_cell
        .get()
        .expect("start stamped during the run")
        .elapsed()
        .as_nanos() as u64;
    let mut workers = Vec::with_capacity(joined.len());
    for r in joined {
        workers.push(r?);
    }
    Ok(assemble(
        engine,
        backend.isolation(),
        dataset,
        cfg,
        wall_nanos,
        workers,
    ))
}

/// Sequential (single-threaded, closed-loop) replay of the same per-worker
/// op sequences over an arbitrary [`Backend`] — the reference a concurrent
/// read-only run must reproduce exactly, over any transport.
pub fn run_backend_sequential(
    backend: &dyn Backend,
    dataset: &str,
    cfg: &WorkloadConfig,
) -> GdbResult<RunReport> {
    let cfg = WorkloadConfig {
        pacing: Pacing::Closed,
        ..cfg.clone()
    };
    let cfg = &cfg;
    validate(cfg)?;
    let engine = backend.engine();
    let mix = cfg.mix.mix();
    // Sessions open before the clock starts, as in the concurrent path.
    let mut sessions: Vec<Box<dyn Session + '_>> = (0..cfg.threads as usize)
        .map(|w| backend.open_session(w))
        .collect::<GdbResult<_>>()?;
    let gate = TailGate::new();
    let start = Instant::now();
    let workers: Vec<WorkerStats> = sessions
        .iter_mut()
        .enumerate()
        .map(|(w, session)| worker_loop(w, session.as_mut(), &mix, cfg, start, &gate))
        .collect::<GdbResult<_>>()?;
    let wall_nanos = start.elapsed().as_nanos() as u64;
    Ok(assemble(
        engine,
        backend.isolation(),
        dataset,
        cfg,
        wall_nanos,
        workers,
    ))
}

/// Below this remaining wait the pacer spins instead of sleeping:
/// `thread::sleep` routinely oversleeps by tens of microseconds, which at
/// high arrival rates makes the *pacer* (not the engine) fall behind
/// schedule and spuriously shed.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Wait until `at` with sleep for the bulk and a spin for the tail, so the
/// arrival schedule is honored to sub-microsecond accuracy.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let remaining = at - now;
        if remaining > SPIN_THRESHOLD {
            std::thread::sleep(remaining - SPIN_THRESHOLD);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn validate(cfg: &WorkloadConfig) -> GdbResult<()> {
    if cfg.threads == 0 {
        return Err(GdbError::Invalid(
            "workload needs at least one worker".into(),
        ));
    }
    if cfg.ops_per_worker == 0 {
        return Err(GdbError::Invalid(
            "workload needs at least one op per worker".into(),
        ));
    }
    if let Pacing::Open { ops_per_sec, .. } = cfg.pacing {
        if ops_per_sec <= 0.0 || !ops_per_sec.is_finite() {
            return Err(GdbError::Invalid(format!(
                "open-loop pacing needs a positive finite rate, got {ops_per_sec}"
            )));
        }
    }
    Ok(())
}

fn assemble(
    engine: String,
    isolation: String,
    dataset: &str,
    cfg: &WorkloadConfig,
    wall_nanos: u64,
    workers: Vec<WorkerStats>,
) -> RunReport {
    let mut hist = HistSnapshot::new();
    for w in &workers {
        hist.merge(&w.hist);
    }
    RunReport {
        engine,
        dataset: dataset.to_string(),
        mix: cfg.mix.name().to_string(),
        isolation,
        threads: cfg.threads,
        offered_ops_per_sec: cfg.pacing.offered_rate(),
        wall_nanos,
        workers,
        hist,
    }
}

fn worker_loop(
    worker: usize,
    session: &mut dyn Session,
    mix: &Mix,
    cfg: &WorkloadConfig,
    start: Instant,
    gate: &TailGate,
) -> GdbResult<WorkerStats> {
    let mut rng = Mix::worker_rng(cfg.seed, worker);
    let mut stats = WorkerStats {
        worker,
        ops: 0,
        read_ops: 0,
        errors: 0,
        shed: 0,
        epoch_skew: 0,
        txn_conflicts: 0,
        phases: PhaseNanos::zero(),
        hist: HistSnapshot::new(),
        cardinalities: Vec::new(),
    };
    // Highest serving epoch this worker has observed; a later read serving
    // a *lower* epoch is skew (the engine behind the session was replaced,
    // e.g. a remote Reset raced the run).
    let mut max_epoch: Option<u64> = None;
    for i in 0..cfg.ops_per_worker {
        // Always draw from the RNG, shed or not, so trace position `i` maps
        // to the same op regardless of which arrivals were shed.
        let op = mix.pick(&mut rng);
        // Open-loop: wait for this op's scheduled arrival, and measure from
        // it, so time spent queueing behind a slow engine is *in* the
        // latency rather than silently coordinated away. When the schedule
        // has slipped past the backlog bound, shed the op instead of digging
        // the backlog deeper.
        let issue_at = match cfg.pacing {
            Pacing::Closed => Instant::now(),
            Pacing::Open {
                ops_per_sec,
                max_lateness,
            } => {
                let k = worker as u64 + i * cfg.threads as u64;
                let at = start + Duration::from_secs_f64(k as f64 / ops_per_sec);
                let now = Instant::now();
                if at > now {
                    wait_until(at);
                } else if let Some(bound) = max_lateness {
                    if now.duration_since(at) > bound {
                        stats.shed += 1;
                        if cfg.record_cardinalities {
                            stats.cardinalities.push(SHED_CARD);
                        }
                        continue;
                    }
                }
                at
            }
        };
        // Trace identity for this op: deterministic in (seed, worker, index),
        // so a replayed run names the same ops; 0 when `GM_TRACE=off`, which
        // also keeps the thread-local and the downstream record calls
        // untouched (the off path adds no clock reads and no allocation).
        let t_id = trace::derive_id(cfg.seed, worker as u32, i);
        if t_id != 0 {
            trace::begin_op(t_id);
        }
        let result = session.execute(op, worker, i);
        if let Err(GdbError::Poisoned(why)) = result {
            // Another worker panicked inside a write and left the engine
            // half-mutated: abort instead of recovering into corrupt state.
            return Err(GdbError::Poisoned(why));
        }
        let nanos = issue_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let recorded = t_id != 0
            && trace::record_op(
                gate,
                t_id,
                worker as u32,
                i,
                op.trace_code(),
                trace::TraceOrigin::Client,
                nanos,
                match &result {
                    Ok(res) => res.phases,
                    Err(_) => PhaseNanos::zero(),
                },
            );
        // Only an id whose record actually landed in the flight recorder may
        // become an exemplar — that is the guarantee that every reported
        // `p99_exemplar` resolves to a retrievable trace record.
        stats
            .hist
            .record_traced(nanos, if recorded { t_id } else { 0 });
        match result {
            Ok(res) => {
                stats.ops += 1;
                stats.phases.accumulate(&res.phases);
                if matches!(op, Op::Read(_)) {
                    stats.read_ops += 1;
                }
                if let Some(epoch) = res.epoch {
                    if max_epoch.is_some_and(|m| epoch < m) {
                        stats.epoch_skew += 1;
                    }
                    // Adopt the observed epoch as the new reference, even
                    // when it is *lower*: a drop means the engine behind
                    // the session was replaced (a `Reset` restarted epochs
                    // at 0), and each op is charged at most one skew
                    // against the regime it actually raced. Keeping the old
                    // high-water mark instead would re-count the same reset
                    // on every later read — a strict pin that retried after
                    // racing a reset used to inflate skew for the whole
                    // rest of the run.
                    max_epoch = Some(epoch);
                }
                if cfg.record_cardinalities {
                    stats.cardinalities.push(res.cardinality);
                }
            }
            Err(_) => {
                stats.errors += 1;
                if cfg.record_cardinalities {
                    stats.cardinalities.push(ERR_CARD);
                }
            }
        }
    }
    session.finish()?;
    stats.txn_conflicts = session.txn_conflicts();
    Ok(stats)
}

/// Apply one driver write op — the server side of the concurrency contract.
///
/// Public because remote transports (`gm-net`) replay the *identical*
/// mutation server-side: worker-unique property names, endpoint pools strided
/// by worker, and deletions restricted to this worker's own earlier edges
/// (`owned_edges`, one pool per session) all must match the in-process
/// driver bit for bit for run results to be comparable across transports.
pub fn apply_write(
    wop: WriteOp,
    db: &mut dyn GraphDb,
    params: &ResolvedParams,
    worker: usize,
    op_index: u64,
    owned_edges: &mut Vec<Eid>,
) -> GdbResult<u64> {
    match wop {
        WriteOp::AddVertex => {
            db.add_vertex(
                "wl_vertex",
                &vec![
                    ("wl_worker".into(), Value::Int(worker as i64)),
                    ("wl_seq".into(), Value::Int(op_index as i64)),
                ],
            )?;
            Ok(1)
        }
        WriteOp::AddEdge => {
            // Endpoints from the pre-resolved pair pool; workers stride
            // through it at different offsets so contention is realistic.
            let (src, dst) = params.pair(worker.wrapping_mul(7919).wrapping_add(op_index as usize));
            let eid = db.add_edge(src, dst, "wl_edge", &Vec::new())?;
            owned_edges.push(eid);
            Ok(1)
        }
        WriteOp::SetVertexProp => {
            // Worker-unique property name: workers never clobber each other,
            // so a run's end state is independent of interleaving.
            db.set_vertex_property(
                params.vertex,
                &format!("wl_w{worker}"),
                Value::Int(op_index as i64),
            )?;
            Ok(1)
        }
        WriteOp::RemoveOwnEdge => match owned_edges.pop() {
            Some(eid) => {
                db.remove_edge(eid)?;
                Ok(1)
            }
            // Nothing of ours left to delete — degrade to a create so the
            // op count stays comparable across runs.
            None => apply_write(
                WriteOp::AddVertex,
                db,
                params,
                worker,
                op_index,
                owned_edges,
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{prepare, HostBackend, SharedEngine};
    use engine_linked::LinkedGraph;
    use gm_model::api::{Applied, Mutation};
    use gm_model::{testkit, GraphSnapshot, QueryCtx};
    use gm_mvcc::{CowCell, SnapshotSource};
    use std::sync::RwLock;

    fn factory() -> Box<dyn GraphDb> {
        Box::new(LinkedGraph::v1())
    }

    fn cow() -> Box<dyn SnapshotSource> {
        Box::new(CowCell::new(LinkedGraph::v1()))
    }

    fn small_cfg(mix: MixKind, threads: u32) -> WorkloadConfig {
        WorkloadConfig {
            mix,
            threads,
            ops_per_worker: 60,
            seed: 11,
            record_cardinalities: true,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn closed_loop_mixed_run_completes() {
        let data = testkit::chain_dataset(200);
        let cfg = small_cfg(MixKind::Mixed, 4);
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(report.threads, 4);
        assert_eq!(report.ops() + report.errors(), 4 * 60);
        assert_eq!(report.errors(), 0, "no op should fail on the linked engine");
        assert_eq!(report.hist.count(), 4 * 60);
        assert!(report.wall_nanos > 0);
        assert!(report.throughput() > 0.0);
        let row = report.scaling_row();
        assert_eq!(row.ops, 240);
        assert!(row.p50_nanos <= row.p99_nanos);
    }

    #[test]
    fn read_only_concurrent_matches_sequential() {
        let data = testkit::chain_dataset(300);
        let cfg = small_cfg(MixKind::ReadOnly, 4);
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let concurrent = run_backend(&backend, &data.name, &cfg).unwrap();
        let sequential = run_backend_sequential(&backend, &data.name, &cfg).unwrap();
        assert_eq!(
            concurrent.cardinality_trace(),
            sequential.cardinality_trace(),
            "read-only results must not depend on interleaving"
        );
        assert_eq!(concurrent.ops(), sequential.ops());
    }

    #[test]
    fn open_loop_records_latency_from_arrival() {
        let data = testkit::chain_dataset(100);
        let cfg = WorkloadConfig {
            mix: MixKind::ReadOnly,
            threads: 2,
            ops_per_worker: 40,
            pacing: Pacing::open(4_000.0),
            ..WorkloadConfig::default()
        };
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(report.ops(), 80);
        assert_eq!(report.shed(), 0, "unbounded open loop never sheds");
        assert_eq!(report.offered_ops_per_sec, Some(4_000.0));
        // 80 ops at 4k/s arrive over ~20 ms: the run cannot finish faster.
        assert!(
            report.wall_nanos >= 15_000_000,
            "open loop paces the run ({} ns)",
            report.wall_nanos
        );
    }

    #[test]
    fn write_heavy_grows_the_graph() {
        let data = testkit::chain_dataset(120);
        let cfg = small_cfg(MixKind::WriteHeavy, 3);
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(report.errors(), 0);
        assert_eq!(report.mix, "write-heavy");
    }

    #[test]
    fn snapshot_read_only_matches_locked_and_sequential() {
        let data = testkit::chain_dataset(300);
        let cfg = small_cfg(MixKind::ReadOnly, 4);
        let source = cow();
        let params = prepare(&source, &data, cfg.seed).unwrap();
        let snap = run_backend(
            &HostBackend::new(&source, &params, cfg.op_timeout),
            &data.name,
            &cfg,
        )
        .unwrap();
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let locked = run_backend(&backend, &data.name, &cfg).unwrap();
        let seq = run_backend_sequential(&backend, &data.name, &cfg).unwrap();
        // Same results through all three read paths — the isolation
        // mechanism must never change what a read returns.
        assert_eq!(snap.cardinality_trace(), seq.cardinality_trace());
        assert_eq!(snap.cardinality_trace(), locked.cardinality_trace());
        assert_eq!(snap.isolation, "snapshot-cow");
        assert_eq!(locked.isolation, "locked");
        assert_eq!(snap.epoch_skew(), 0, "monotone epochs never skew");
        assert_eq!(snap.errors(), 0);
    }

    #[test]
    fn snapshot_write_heavy_completes_and_labels_the_measurement() {
        let data = testkit::chain_dataset(150);
        let cfg = small_cfg(MixKind::WriteHeavy, 3);
        let source = cow();
        let params = prepare(&source, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&source, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(report.errors(), 0, "no op should fail under snapshots");
        assert_eq!(report.ops(), 3 * 60);
        assert_eq!(report.epoch_skew(), 0);
        let row = report.scaling_row();
        assert_eq!(row.isolation, "snapshot-cow");
        assert_eq!(row.epoch_skew, 0);
        // The measurement label distinguishes snapshot from locked runs so
        // they never collide in the report matrix.
        let m = report.to_measurement();
        assert!(m.query.ends_with("[snapshot-cow]"), "{}", m.query);
        // The sequential snapshot replay agrees with the concurrent run on
        // the read-only prefix semantics (write-heavy traces differ by
        // interleaving, so just check it runs clean).
        let source = cow();
        let params = prepare(&source, &data, cfg.seed).unwrap();
        let backend =
            HostBackend::new(&source, &params, cfg.op_timeout).with_pin_staleness(Duration::ZERO);
        let seq = run_backend_sequential(&backend, &data.name, &cfg).unwrap();
        assert_eq!(seq.errors(), 0);
    }

    /// Single worker, one transaction spanning the whole run (committed at
    /// session finish): the committed graph must equal the autocommit run's
    /// graph exactly — same deterministic op sequence, no interleaving, no
    /// conflicts possible, so transactional replay loses nothing.
    #[test]
    fn transactional_replay_matches_autocommit_final_state() {
        let data = testkit::chain_dataset(150);
        let cfg = small_cfg(MixKind::WriteHeavy, 1);

        let counts = |source: &dyn SnapshotSource| -> (u64, u64) {
            let snap = source.snapshot().unwrap();
            let ctx = QueryCtx::unbounded();
            (
                snap.vertex_count(&ctx).unwrap(),
                snap.edge_count(&ctx).unwrap(),
            )
        };

        let txn_src = cow();
        let txn_params = prepare(&txn_src, &data, cfg.seed).unwrap();
        let backend =
            HostBackend::new(&txn_src, &txn_params, cfg.op_timeout).with_txn_ops(u64::MAX);
        let txn_report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(txn_report.errors(), 0);
        assert_eq!(txn_report.txn_conflicts(), 0, "nothing to race against");
        assert_eq!(txn_report.scaling_row().isolation, "snapshot-cow+txn");

        let auto_src = cow();
        let auto_params = prepare(&auto_src, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&auto_src, &auto_params, cfg.op_timeout);
        let auto_report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(auto_report.errors(), 0);

        assert_eq!(
            counts(txn_src.as_ref()),
            counts(auto_src.as_ref()),
            "one big committed transaction must land the same graph as autocommit"
        );
    }

    /// Concurrent transactional sessions racing on a shared victim vertex:
    /// a commit that loses first-committer-wins validation is counted in
    /// `txn_conflicts`, never as an op error, and the accounting threads
    /// through the report into the scaling row.
    #[test]
    fn transactional_conflicts_are_counted_not_errored() {
        let data = testkit::chain_dataset(200);
        let cfg = small_cfg(MixKind::WriteHeavy, 4);
        let source = cow();
        let params = prepare(&source, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&source, &params, cfg.op_timeout).with_txn_ops(4);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(report.errors(), 0, "a conflicted commit is not an op error");
        assert_eq!(report.ops(), 4 * 60, "every op completed");
        assert_eq!(report.epoch_skew(), 0, "txn reads report no epoch");
        let row = report.scaling_row();
        assert_eq!(row.isolation, "snapshot-cow+txn");
        assert_eq!(row.txn_conflicts, report.txn_conflicts());
        assert_eq!(
            report.txn_conflicts(),
            report.workers.iter().map(|w| w.txn_conflicts).sum::<u64>()
        );
    }

    #[test]
    fn measurement_row_shape() {
        let data = testkit::chain_dataset(100);
        let cfg = small_cfg(MixKind::ReadHeavy, 2);
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        let m = report.to_measurement();
        assert_eq!(m.query, "WL:read-heavy@t2");
        assert_eq!(m.cardinality, Some(report.ops()));
        assert_eq!(m.outcome, Outcome::Completed);
    }

    /// Build a report by hand with chosen counters (the driver never errors
    /// on the linked engine, so partial failure must be constructed).
    fn hand_report(ops: u64, errors: u64, shed: u64) -> RunReport {
        let mut hist = HistSnapshot::new();
        for _ in 0..(ops + errors) {
            hist.record(1_000);
        }
        RunReport {
            engine: "linked(v1)".into(),
            dataset: "d".into(),
            mix: "mixed".into(),
            isolation: "locked".into(),
            threads: 1,
            offered_ops_per_sec: None,
            wall_nanos: 1_000_000,
            workers: vec![WorkerStats {
                worker: 0,
                ops,
                read_ops: ops,
                errors,
                shed,
                epoch_skew: 0,
                txn_conflicts: 0,
                phases: PhaseNanos::zero(),
                hist: hist.clone(),
                cardinalities: Vec::new(),
            }],
            hist,
        }
    }

    /// Regression: a run with 99% errors must not render identically to a
    /// clean one (`to_measurement` used to report `Completed` whenever at
    /// least one op succeeded).
    #[test]
    fn measurement_surfaces_partial_failure() {
        assert_eq!(
            hand_report(100, 0, 0).to_measurement().outcome,
            Outcome::Completed
        );

        let degraded = hand_report(1, 99, 0);
        assert!((degraded.error_rate() - 0.99).abs() < 1e-9);
        match degraded.to_measurement().outcome {
            Outcome::Failed(why) => {
                assert!(why.contains("99 of 100"), "{why}");
                assert!(why.contains("99.0%"), "{why}");
            }
            o => panic!("expected Failed for a 99%-errors run, got {o:?}"),
        }

        match hand_report(0, 5, 0).to_measurement().outcome {
            Outcome::Failed(why) => {
                assert!(why.contains("no op completed"), "{why}");
                assert!(why.contains("5 of 5"), "{why}");
            }
            o => panic!("expected Failed for an all-errors run, got {o:?}"),
        }

        // Heavy shedding must not render as a clean completion either.
        let shed_heavy = hand_report(100, 0, 50);
        match shed_heavy.to_measurement().outcome {
            Outcome::Failed(why) => {
                assert!(why.contains("shed 50 of 150"), "{why}");
                assert!(why.contains("33.3%"), "{why}");
            }
            o => panic!("expected Failed for a shed-heavy run, got {o:?}"),
        }
    }

    #[test]
    fn overloaded_open_loop_sheds_and_terminates() {
        // Scan-heavy ops over 2000 vertices take tens of microseconds each;
        // 4000 arrivals offered over ~2 ms with a 5 ms lateness bound must
        // overload any engine, so the run sheds instead of queueing forever.
        let data = testkit::chain_dataset(2000);
        let cfg = WorkloadConfig {
            mix: MixKind::ScanHeavy,
            threads: 2,
            ops_per_worker: 2_000,
            seed: 5,
            record_cardinalities: true,
            pacing: Pacing::open_bounded(2_000_000.0, Duration::from_millis(5)),
            ..WorkloadConfig::default()
        };
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let t0 = Instant::now();
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "overload run must terminate in bounded time"
        );
        assert!(report.shed() > 0, "an overloaded run must shed");
        assert_eq!(
            report.ops() + report.errors() + report.shed(),
            4_000,
            "every scheduled op is completed, errored, or shed"
        );
        assert_eq!(
            report.hist.count(),
            report.ops() + report.errors(),
            "shed ops never enter the latency histogram"
        );
        assert_eq!(report.offered_ops_per_sec, Some(2_000_000.0));
        let row = report.scaling_row();
        assert_eq!(row.shed, report.shed());
        assert!(row.shed_fraction() > 0.0);
        // The measurement carries the offered rate in its label (so rates
        // don't collide in the report matrix) and reports the shedding.
        let m = report.to_measurement();
        assert!(m.query.ends_with("@2000000/s"), "{}", m.query);
        match m.outcome {
            Outcome::Failed(why) => assert!(why.contains("shed"), "{why}"),
            o => panic!("a shedding run must not report {o:?}"),
        }

        // Determinism under shedding: position i of the trace is the same op
        // whether or not earlier arrivals were shed, so every *executed*
        // position must match the closed-loop sequential replay exactly.
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let seq = run_backend_sequential(&backend, &data.name, &cfg).unwrap();
        let (ct, st) = (report.cardinality_trace(), seq.cardinality_trace());
        assert_eq!(ct.len(), st.len());
        let mut executed = 0u64;
        for (i, (c, s)) in ct.iter().zip(st.iter()).enumerate() {
            if *c != SHED_CARD {
                assert_eq!(c, s, "executed position {i} must match the replay");
                executed += 1;
            }
        }
        assert_eq!(executed, report.ops() + report.errors());
    }

    /// A backend whose sessions serve a scripted epoch sequence — the test
    /// double for reads racing an engine `Reset` (epochs restart at 0).
    struct ScriptedEpochs {
        epochs: Vec<u64>,
    }

    struct ScriptedSession<'a> {
        epochs: &'a [u64],
        at: usize,
    }

    impl Backend for ScriptedEpochs {
        fn engine(&self) -> String {
            "scripted".into()
        }

        fn isolation(&self) -> String {
            "snapshot-scripted".into()
        }

        fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
            Ok(Box::new(ScriptedSession {
                epochs: &self.epochs,
                at: 0,
            }))
        }
    }

    impl Session for ScriptedSession<'_> {
        fn execute(&mut self, _op: Op, _worker: usize, _op_index: u64) -> GdbResult<OpResult> {
            let epoch = self.epochs[self.at % self.epochs.len()];
            self.at += 1;
            Ok(OpResult {
                cardinality: 1,
                epoch: Some(epoch),
                phases: PhaseNanos::zero(),
            }
            .with_lock_wait(3))
        }
    }

    /// Regression (epoch-skew double count): a strict pin that retries after
    /// racing a `Reset` observes the restarted epoch regime once — but the
    /// old accounting kept the pre-reset high-water mark, so every later
    /// read of the (monotone!) restarted sequence was re-counted as skew.
    /// One reset must cost exactly one skew event per worker.
    #[test]
    fn epoch_skew_counts_a_reset_once_not_per_remaining_op() {
        // Epochs 5,6 then a reset: 0,1,2,3. Only the 6→0 drop is skew; the
        // restarted sequence is monotone and must not keep counting.
        let backend = ScriptedEpochs {
            epochs: vec![5, 6, 0, 1, 2, 3],
        };
        let cfg = WorkloadConfig {
            mix: MixKind::ReadOnly,
            threads: 1,
            ops_per_worker: 6,
            ..WorkloadConfig::default()
        };
        let report = run_backend(&backend, "scripted", &cfg).unwrap();
        assert_eq!(
            report.epoch_skew(),
            1,
            "one reset is one skew event, not one per remaining read"
        );
        // A second reset costs a second event — drops are still detected.
        let backend = ScriptedEpochs {
            epochs: vec![5, 0, 1, 0, 1, 2],
        };
        let report = run_backend(&backend, "scripted", &cfg).unwrap();
        assert_eq!(report.epoch_skew(), 2, "each distinct drop counts once");
        // Lock-wait plumbing rides the same OpResult: 6 ops × 3 ns.
        assert_eq!(report.lock_wait_nanos(), 18);
        assert_eq!(report.scaling_row().lock_wait_nanos, 18);
    }

    /// Lock-wait accounting on the real locked backend: a write-heavy
    /// multi-worker run records acquisition waits and threads them through
    /// `WorkerStats` into the scaling row.
    #[test]
    fn locked_backend_records_lock_waits() {
        let data = testkit::chain_dataset(150);
        let cfg = small_cfg(MixKind::WriteHeavy, 4);
        let host = SharedEngine::new(factory());
        let params = prepare(&host, &data, cfg.seed).unwrap();
        let backend = HostBackend::new(&host, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, &cfg).unwrap();
        assert_eq!(
            report.lock_wait_nanos(),
            report
                .workers
                .iter()
                .map(|w| w.phases.get(Phase::LockWait))
                .sum::<u64>()
        );
        assert_eq!(
            report.scaling_row().lock_wait_nanos,
            report.lock_wait_nanos()
        );
        // Four workers contending one RwLock: acquisition time is measured
        // (it can be small, but a 240-op contended run never totals zero).
        assert!(
            report.lock_wait_nanos() > 0,
            "contended run must record some lock wait"
        );
    }

    /// A `GraphDb` whose writes panic after a countdown, leaving the shared
    /// lock poisoned mid-run — the deliberate failure the driver must abort
    /// on rather than recover from.
    struct PanicOnWrite {
        inner: Box<dyn GraphDb>,
        writes_left: u32,
    }

    impl PanicOnWrite {
        fn tick(&mut self) {
            if self.writes_left == 0 {
                panic!("deliberate mid-write panic (PanicOnWrite)");
            }
            self.writes_left -= 1;
        }
    }

    impl GraphSnapshot for PanicOnWrite {
        gm_model::forward_graph_snapshot!(target = |s| s.inner);
    }

    impl GraphDb for PanicOnWrite {
        fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
            // Data writes count down; load, index builds and flushes do not.
            if !matches!(
                m,
                Mutation::BulkLoad(..) | Mutation::CreateVertexIndex(_) | Mutation::Sync
            ) {
                self.tick();
            }
            self.inner.apply(m)
        }
    }

    /// Regression: a writer panicking mid-mutation used to be silently
    /// "recovered" (`PoisonError::into_inner`), so the rest of the run kept
    /// measuring a half-mutated engine. The run must abort with
    /// [`GdbError::Poisoned`] instead.
    #[test]
    fn panicking_writer_aborts_the_run() {
        let host: SharedEngine = RwLock::new(Box::new(PanicOnWrite {
            inner: Box::new(LinkedGraph::v1()),
            writes_left: 8,
        }));
        let data = testkit::chain_dataset(150);
        let cfg = WorkloadConfig {
            mix: MixKind::WriteHeavy,
            threads: 4,
            ops_per_worker: 400,
            seed: 3,
            ..WorkloadConfig::default()
        };
        let params = prepare(&host, &data, cfg.seed).unwrap();
        match run_backend(
            &HostBackend::new(&host, &params, cfg.op_timeout),
            &data.name,
            &cfg,
        ) {
            Err(GdbError::Poisoned(why)) => {
                assert!(
                    why.contains("poisoned") || why.contains("panicked"),
                    "{why}"
                );
            }
            Err(e) => panic!("expected GdbError::Poisoned, got {e}"),
            Ok(r) => panic!(
                "run must abort on a panicking writer, but completed with {} ops",
                r.ops()
            ),
        }
    }
}
