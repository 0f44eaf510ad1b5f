//! The hosting seam: how concurrent clients share one graph.
//!
//! A [`Host`] is the one place that decides what a read runs against and
//! how a write batch enters the graph. Three implementations cover every
//! configuration the driver and `gm-net`'s server run:
//!
//! * [`SharedEngine`] — one engine behind an `RwLock`: reads under the
//!   shared lock, writes under the exclusive one (`locked`);
//! * `dyn SnapshotSource` — `gm-mvcc`'s `CowCell` / `FreezeCell` and
//!   `gm-shard`'s `ShardedSource`: a read pins an epoch at a bounded
//!   staleness and runs lock-free (`snapshot-cow`, `snapshot-native`, …);
//! * `gm-shard`'s `ShardedGraph` — the composite's per-shard locks are the
//!   only synchronization (`sharded-locked`).
//!
//! Concurrency control is orthogonal to the data organisation: everything
//! above the trait — the one op executor both the in-process driver and the
//! server's `ExecOp` call ([`execute_op`]), the one loader ([`prepare`]) and
//! the one in-process backend ([`HostBackend`], whose sessions can buffer
//! writes in MVCC write transactions) — is written once against it. A new
//! hosting mode is one more impl.

use std::sync::{PoisonError, RwLock};
use std::time::Duration;

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::api::LoadOptions;
use gm_model::lockorder::{self, LockRank};
use gm_model::{lockwait, Dataset, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx};
use gm_mvcc::{SnapshotSource, WriteFn, WriteTxn, TXN_ID_TAG};
use gm_obs::phase::{self, Phase};

use crate::driver::{
    apply_write, Backend, OpResult, Session, SNAPSHOT_PIN_STALENESS, WORKLOAD_SLOTS,
};
use crate::mix::Op;

/// A read executed against one view of a host's graph, returning a
/// cardinality.
pub type ReadFn<'a> = dyn FnMut(&dyn GraphSnapshot) -> GdbResult<u64> + 'a;

/// How concurrent clients share one graph: what a read runs against, how a
/// write batch enters, and what isolation that gives.
pub trait Host: Send + Sync {
    /// Engine display name (the report's `engine` column).
    fn name(&self) -> String;

    /// Read-path isolation label: `locked`, `snapshot-<kind>` or
    /// `sharded-locked`.
    fn isolation(&self) -> String;

    /// Run `f` on a read view — the shared guard, or an epoch pinned at
    /// most `staleness` old (`Duration::ZERO` pins strictly, so a client
    /// reads its own earlier writes). Returns `f`'s result and the serving
    /// epoch, which only pinned views have.
    fn read_view(&self, staleness: Duration, f: &mut ReadFn<'_>) -> GdbResult<(u64, Option<u64>)>;

    /// Run one write batch against the live graph.
    fn write_batch(&self, f: &mut WriteFn<'_>) -> GdbResult<u64>;

    /// The MVCC source behind this host — what write transactions begin
    /// and commit against. `None` where writes apply in place.
    fn snapshot_source(&self) -> Option<&dyn SnapshotSource> {
        None
    }
}

/// Run a one-shot read through [`Host::read_view`] and carry its own result
/// out, with the serving epoch (the read-side twin of `gm_mvcc::write_once`).
pub fn read_once<R>(
    host: &(impl Host + ?Sized),
    staleness: Duration,
    f: impl FnOnce(&dyn GraphSnapshot) -> GdbResult<R>,
) -> GdbResult<(R, Option<u64>)> {
    let mut once = Some(f);
    let mut out = None;
    let (_, epoch) = host.read_view(staleness, &mut |view| {
        if let Some(f) = once.take() {
            out = Some(f(view)?);
        }
        Ok(0)
    })?;
    let out = out.ok_or_else(|| GdbError::Invalid("the read path never ran the read".into()))?;
    Ok((out, epoch))
}

/// One engine behind an `RwLock`: concurrent reads under the shared lock,
/// serialized writes under the exclusive one.
pub type SharedEngine = RwLock<Box<dyn GraphDb>>;

/// A poisoned lock means a writer panicked while mutating the engine.
/// Recovering (`into_inner`) would keep measuring against half-mutated
/// state; a distinct error aborts the whole run instead.
fn poisoned(side: &str) -> GdbError {
    GdbError::Poisoned(format!(
        "shared engine {side} lock poisoned by a panicking writer"
    ))
}

impl Host for SharedEngine {
    fn name(&self) -> String {
        // gm-lock: driver transient
        let _t = lockorder::acquire(LockRank::Driver, "gm-workload/host.rs engine name");
        // A panicking writer cannot have renamed the engine.
        self.read().unwrap_or_else(PoisonError::into_inner).name()
    }

    fn isolation(&self) -> String {
        "locked".into()
    }

    fn read_view(&self, _staleness: Duration, f: &mut ReadFn<'_>) -> GdbResult<(u64, Option<u64>)> {
        // gm-lock: driver
        let _t = lockorder::acquire(LockRank::Driver, "gm-workload/host.rs engine read");
        let db = lockwait::timed(|| self.read()).map_err(|_| poisoned("read"))?;
        Ok((f(&**db)?, None))
    }

    fn write_batch(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
        // gm-lock: driver
        let _t = lockorder::acquire(LockRank::Driver, "gm-workload/host.rs engine write");
        let mut db = lockwait::timed(|| self.write()).map_err(|_| poisoned("write"))?;
        f(db.as_mut())
    }
}

/// Reads pin an epoch and run lock-free; the waits on this path (pin locks,
/// the writer mutex) happen inside the source, which reports them through
/// the thread-local `lockwait` accumulator and opens `clone_publish` spans
/// when it pays an epoch clone.
impl<'s> Host for dyn SnapshotSource + 's {
    fn name(&self) -> String {
        self.engine()
    }

    fn isolation(&self) -> String {
        format!("snapshot-{}", self.kind())
    }

    fn read_view(&self, staleness: Duration, f: &mut ReadFn<'_>) -> GdbResult<(u64, Option<u64>)> {
        let snap = {
            let _pin = phase::span(Phase::SnapshotPin);
            self.snapshot_recent(staleness)?
        };
        Ok((f(snap.as_ref())?, Some(snap.epoch())))
    }

    fn write_batch(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
        self.with_write(f)
    }

    fn snapshot_source(&self) -> Option<&dyn SnapshotSource> {
        Some(self)
    }
}

/// A boxed host hosts like its contents (the server's factories box hosts,
/// and a `Box<dyn SnapshotSource>` is how the registry hands out sources).
impl<H: Host + ?Sized> Host for Box<H> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn isolation(&self) -> String {
        (**self).isolation()
    }

    fn read_view(&self, staleness: Duration, f: &mut ReadFn<'_>) -> GdbResult<(u64, Option<u64>)> {
        (**self).read_view(staleness, f)
    }

    fn write_batch(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
        (**self).write_batch(f)
    }

    fn snapshot_source(&self) -> Option<&dyn SnapshotSource> {
        (**self).snapshot_source()
    }
}

/// Execute one driver op against `host`: a read runs `catalog::execute_read`
/// on a read view `staleness` old under an `engine_exec` span, bounded by
/// `timeout`; a write runs [`apply_write`] in one write batch. Returns the
/// cardinality and, for pinned reads, the serving epoch (writes produce the
/// next epoch, they don't observe one).
///
/// The in-process session and `gm-net`'s `ExecOp` handler both call this,
/// so an op executes the same way whichever layer hosts it.
#[allow(clippy::too_many_arguments)] // one flat call per op on the hot path
pub fn execute_op<H: Host + ?Sized>(
    host: &H,
    op: Op,
    params: &ResolvedParams,
    timeout: Option<Duration>,
    staleness: Duration,
    worker: usize,
    op_index: u64,
    owned_edges: &mut Vec<Eid>,
) -> GdbResult<(u64, Option<u64>)> {
    match op {
        Op::Read(inst) => {
            let ctx = timeout.map_or_else(QueryCtx::unbounded, QueryCtx::with_timeout);
            host.read_view(staleness, &mut |view| {
                let _exec = phase::span(Phase::EngineExec);
                catalog::execute_read(&inst, view, params, &ctx)
            })
        }
        // No deadline on writes: the GraphDb mutation API carries no
        // QueryCtx (mutations are point operations in the paper's
        // taxonomy), so the timeout bounds reads only.
        Op::Write(wop) => {
            let card = host.write_batch(&mut |db| {
                let _exec = phase::span(Phase::EngineExec);
                apply_write(wop, db, params, worker, op_index, owned_edges)
            })?;
            Ok((card, None))
        }
    }
}

/// Bulk-load `data` into `host` through its write path, then resolve the
/// workload parameters drawn from `seed` against a strict read view — the
/// set-up every run pays outside its measured region, as §4.2 prescribes.
pub fn prepare<H: Host + ?Sized>(host: &H, data: &Dataset, seed: u64) -> GdbResult<ResolvedParams> {
    host.write_batch(&mut |db| {
        db.bulk_load(data, &LoadOptions::default())?;
        db.sync()?;
        Ok(0)
    })?;
    let workload = Workload::choose(data, seed, WORKLOAD_SLOTS);
    read_once(host, Duration::ZERO, |view| workload.resolve(view)).map(|(params, _)| params)
}

/// The in-process backend: every worker's session executes ops against one
/// loaded, parameter-resolved [`Host`].
pub struct HostBackend<'a, H: Host + ?Sized> {
    host: &'a H,
    engine: String,
    params: &'a ResolvedParams,
    op_timeout: Duration,
    /// Pin staleness bound: [`SNAPSHOT_PIN_STALENESS`] for concurrent runs
    /// (group-committed publishes), [`Duration::ZERO`] for sequential
    /// replays, where every pin must be strict so a worker reads its own
    /// earlier writes and the trace stays wall-clock-independent. Hosts
    /// without epochs ignore it.
    pin_staleness: Duration,
    /// Transactional session mode: 0 (default) is autocommit. `n > 0` makes
    /// each session buffer its writes in an epoch-pinned [`WriteTxn`],
    /// committing every `n` writes and once more at [`Session::finish`]. A
    /// commit that loses first-committer-wins validation discards the
    /// buffered set and counts a `txn_conflicts` instead of an op error.
    txn_ops: u64,
}

/// The snapshot-isolation backend: [`HostBackend`] over a source.
pub type SnapshotBackend<'a> = HostBackend<'a, dyn SnapshotSource + 'a>;

impl<'a, H: Host + ?Sized> HostBackend<'a, H> {
    /// Wrap a loaded, parameter-resolved host (group-committed pins at
    /// [`SNAPSHOT_PIN_STALENESS`], autocommit writes).
    pub fn new(host: &'a H, params: &'a ResolvedParams, op_timeout: Duration) -> Self {
        HostBackend {
            host,
            engine: host.name(),
            params,
            op_timeout,
            pin_staleness: SNAPSHOT_PIN_STALENESS,
            txn_ops: 0,
        }
    }

    /// Override the pin staleness bound (`Duration::ZERO` = strict
    /// read-your-writes pins).
    pub fn with_pin_staleness(mut self, pin_staleness: Duration) -> Self {
        self.pin_staleness = pin_staleness;
        self
    }

    /// Enable transactional session mode: buffer writes in an epoch-pinned
    /// [`WriteTxn`] and commit every `txn_ops` writes (0 = autocommit, the
    /// default). Sessions refuse to open over a host without a snapshot
    /// source.
    pub fn with_txn_ops(mut self, txn_ops: u64) -> Self {
        self.txn_ops = txn_ops;
        self
    }
}

impl<H: Host + ?Sized> Backend for HostBackend<'_, H> {
    fn engine(&self) -> String {
        self.engine.clone()
    }

    fn isolation(&self) -> String {
        // Transactional runs get their own label so they never collide with
        // autocommit runs in the report matrix.
        if self.txn_ops > 0 {
            format!("{}+txn", self.host.isolation())
        } else {
            self.host.isolation()
        }
    }

    fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        let txn_source = match self.txn_ops {
            0 => None,
            _ => Some(self.host.snapshot_source().ok_or_else(|| {
                GdbError::Unsupported(format!(
                    "write transactions need a snapshot source; {} hosting has none",
                    self.host.isolation()
                ))
            })?),
        };
        Ok(Box::new(HostSession {
            host: self.host,
            params: self.params,
            op_timeout: self.op_timeout,
            pin_staleness: self.pin_staleness,
            owned_edges: Vec::new(),
            txn_ops: self.txn_ops,
            txn_source,
            txn: None,
            txn_writes: 0,
            txn_conflicts: 0,
        }))
    }
}

/// The locked backend under an engine name the caller already holds: a
/// [`HostBackend`] over a [`SharedEngine`], kept for that constructor's
/// signature.
pub struct LocalBackend<'a>(HostBackend<'a, SharedEngine>);

impl<'a> LocalBackend<'a> {
    /// Wrap a loaded, parameter-resolved shared engine.
    pub fn new(
        engine: String,
        lock: &'a SharedEngine,
        params: &'a ResolvedParams,
        op_timeout: Duration,
    ) -> Self {
        LocalBackend(HostBackend {
            host: lock,
            engine,
            params,
            op_timeout,
            pin_staleness: SNAPSHOT_PIN_STALENESS,
            txn_ops: 0,
        })
    }
}

impl Backend for LocalBackend<'_> {
    fn engine(&self) -> String {
        self.0.engine()
    }

    fn isolation(&self) -> String {
        self.0.isolation()
    }

    fn open_session(&self, worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        self.0.open_session(worker)
    }
}

/// One worker's session over a host.
struct HostSession<'a, H: Host + ?Sized> {
    host: &'a H,
    params: &'a ResolvedParams,
    op_timeout: Duration,
    pin_staleness: Duration,
    owned_edges: Vec<Eid>,
    /// Commit cadence (writes per transaction); 0 = autocommit.
    txn_ops: u64,
    /// Where transactions begin and commit; `Some` exactly when
    /// `txn_ops > 0`.
    txn_source: Option<&'a dyn SnapshotSource>,
    /// The open transaction, if any. Opened lazily by the first write of a
    /// batch; reads issued while it is open are served from its
    /// read-your-writes overlay at the pinned base epoch.
    txn: Option<WriteTxn>,
    /// Writes buffered in the open transaction so far.
    txn_writes: u64,
    /// Commits lost to first-committer-wins validation.
    txn_conflicts: u64,
}

impl<H: Host + ?Sized> HostSession<'_, H> {
    /// Execute one op inside the session's write transaction: writes buffer
    /// into it (opening one first), reads serve its read-your-writes
    /// overlay at the pinned base epoch and report no epoch — the strict
    /// base pin interleaved with group-committed pins (which may lag it)
    /// would register as skew when it is really two pin disciplines side by
    /// side; the transaction's epoch discipline is enforced at commit
    /// validation instead.
    fn execute_in_txn(
        &mut self,
        source: &dyn SnapshotSource,
        op: Op,
        worker: usize,
        op_index: u64,
    ) -> GdbResult<u64> {
        let wop = match op {
            Op::Read(inst) => {
                let ctx = QueryCtx::with_timeout(self.op_timeout);
                let txn = self
                    .txn
                    .as_ref()
                    .expect("reads join only an open transaction");
                let _exec = phase::span(Phase::EngineExec);
                return catalog::execute_read(&inst, txn, self.params, &ctx);
            }
            Op::Write(wop) => wop,
        };
        if self.txn.is_none() {
            let _pin = phase::span(Phase::SnapshotPin);
            self.txn = Some(WriteTxn::begin(source)?);
        }
        let card = {
            let _exec = phase::span(Phase::EngineExec);
            let txn = self.txn.as_mut().expect("opened above");
            apply_write(
                wop,
                txn,
                self.params,
                worker,
                op_index,
                &mut self.owned_edges,
            )?
        };
        self.txn_writes += 1;
        if self.txn_writes >= self.txn_ops {
            let _publish = phase::span(Phase::ClonePublish);
            self.commit_open()?;
        }
        Ok(card)
    }

    /// Commit the open transaction, if any. A `TxnConflict` is the expected
    /// outcome of losing a validation race: count it and move on (the
    /// buffered set is already discarded); anything else is a real failure,
    /// propagated only after the session is ready for its next batch.
    fn commit_open(&mut self) -> GdbResult<()> {
        let (Some(txn), Some(source)) = (self.txn.take(), self.txn_source) else {
            return Ok(());
        };
        let committed = txn.commit(source);
        // The transaction is over whatever the outcome. Its edge ids were
        // placeholders (each transaction restarts its tags, so a stale one
        // names an edge of the *next* transaction); the real ids were
        // assigned or discarded at commit. Drop them from the deletion pool
        // — `RemoveOwnEdge` degrades to a create when the pool runs dry,
        // exactly as it does early in an autocommit run — and start the
        // next batch's count from zero.
        self.txn_writes = 0;
        self.owned_edges.retain(|e| e.0 & TXN_ID_TAG == 0);
        match committed {
            Ok(_) => Ok(()),
            Err(GdbError::TxnConflict(_)) => {
                self.txn_conflicts += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

impl<H: Host + ?Sized> Session for HostSession<'_, H> {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        // Reset all per-op phase state on *entry*: an earlier op that
        // panicked or aborted on a poisoned lock unwound without taking its
        // accumulators, and that residue must not be attributed to this op.
        phase::reset_op();
        let (cardinality, epoch) = match self.txn_source {
            Some(source) if op.is_write() || self.txn.is_some() => {
                (self.execute_in_txn(source, op, worker, op_index)?, None)
            }
            _ => execute_op(
                self.host,
                op,
                self.params,
                Some(self.op_timeout),
                self.pin_staleness,
                worker,
                op_index,
                &mut self.owned_edges,
            )?,
        };
        Ok(OpResult {
            cardinality,
            epoch,
            phases: phase::take_all(),
        })
    }

    fn finish(&mut self) -> GdbResult<()> {
        // Commit whatever the last partial batch buffered, so every write
        // issued inside the measured run lands (or conflicts) before the
        // worker's stats are taken.
        self.commit_open()
    }

    fn txn_conflicts(&self) -> u64 {
        self.txn_conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::WriteOp;
    use engine_linked::LinkedGraph;
    use gm_model::testkit;
    use gm_mvcc::{CowCell, TxnKey, TxnLog};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// A copy-on-write cell whose first transaction commit fails with an I/O
    /// error before applying anything, and which records how many ops every
    /// later commit carried.
    struct FailFirstCommit {
        inner: CowCell<LinkedGraph>,
        failed: AtomicBool,
        commits: Mutex<Vec<u64>>,
    }

    impl SnapshotSource for FailFirstCommit {
        fn engine(&self) -> String {
            self.inner.engine()
        }
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn current_epoch(&self) -> u64 {
            self.inner.current_epoch()
        }
        fn snapshot(&self) -> GdbResult<Box<dyn GraphSnapshot>> {
            self.inner.snapshot()
        }
        fn snapshot_recent(&self, max_staleness: Duration) -> GdbResult<Box<dyn GraphSnapshot>> {
            self.inner.snapshot_recent(max_staleness)
        }
        fn with_write(&self, f: &mut WriteFn<'_>) -> GdbResult<u64> {
            self.inner.with_write(f)
        }
        fn txn_log(&self) -> Option<&TxnLog> {
            self.inner.txn_log()
        }
        fn txn_commit(
            &self,
            start_seq: u64,
            keys: &[TxnKey],
            f: &mut WriteFn<'_>,
        ) -> GdbResult<u64> {
            if !self.failed.swap(true, Ordering::SeqCst) {
                return Err(GdbError::Io("disk went away mid-commit".into()));
            }
            let ops = self.inner.txn_commit(start_seq, keys, f)?;
            self.commits.lock().unwrap().push(ops);
            Ok(ops)
        }
    }

    /// A commit failing with anything but `TxnConflict` still ends the
    /// transaction before the error propagates: its placeholder edge ids
    /// leave the deletion pool (a later `RemoveOwnEdge` would otherwise hit a
    /// *different* edge buffered under the same restarted tag) and the write
    /// count restarts, so the next commit carries a whole batch.
    #[test]
    fn a_failed_commit_leaves_the_session_ready_for_its_next_batch() {
        const TXN_OPS: u64 = 3;
        let cell = FailFirstCommit {
            inner: CowCell::new(LinkedGraph::v1()),
            failed: AtomicBool::new(false),
            commits: Mutex::new(Vec::new()),
        };
        let source: &dyn SnapshotSource = &cell;
        let params = prepare(source, &testkit::chain_dataset(40), 7).unwrap();
        let mut session = HostSession {
            host: source,
            params: &params,
            op_timeout: Duration::from_secs(5),
            pin_staleness: Duration::ZERO,
            owned_edges: Vec::new(),
            txn_ops: TXN_OPS,
            txn_source: Some(source),
            txn: None,
            txn_writes: 0,
            txn_conflicts: 0,
        };
        let add_edge = Op::Write(WriteOp::AddEdge);
        for i in 0..TXN_OPS - 1 {
            session.execute(add_edge, 0, i).unwrap();
        }
        match session.execute(add_edge, 0, TXN_OPS - 1) {
            Err(GdbError::Io(_)) => {}
            other => panic!("the batch's commit must fail with the I/O error, got {other:?}"),
        }
        assert!(
            session.owned_edges.iter().all(|e| e.0 & TXN_ID_TAG == 0),
            "placeholder ids of the failed transaction stayed in the pool: {:?}",
            session.owned_edges
        );
        assert_eq!(
            session.txn_writes, 0,
            "the failed batch's writes still count"
        );
        for i in 0..TXN_OPS {
            session.execute(add_edge, 0, TXN_OPS + i).unwrap();
        }
        assert_eq!(
            *cell.commits.lock().unwrap(),
            vec![TXN_OPS],
            "the next commit carries a whole batch"
        );
    }
}
