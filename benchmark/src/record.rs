//! The benchmark's `Backend`/`Session` decorator: an exact span around every
//! `Session::execute` call, kept in memory per worker.
//!
//! It is installed on every driven run, traced or not, so its own cost (two
//! clock reads and a push per op) is the same on both sides of every
//! comparison; latency percentiles come from these samples, not from the
//! driver's log2 histogram.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use graphmark::model::GdbResult;
use graphmark::workload::{Backend, Op, OpResult, Session};

/// The instant every recorded offset is relative to.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds from the process-wide origin to `t`.
pub fn offset_ns(t: Instant) -> u64 {
    t.saturating_duration_since(origin()).as_nanos() as u64
}

/// One worker's op spans, in issue order.
pub struct WorkerLog {
    pub worker: usize,
    /// `(start, end)` offsets in nanoseconds, and whether the op was a write.
    pub ops: Vec<(u64, u64, bool)>,
}

impl WorkerLog {
    pub fn new(worker: usize, capacity: usize) -> WorkerLog {
        origin();
        WorkerLog {
            worker,
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Close the span that began at `start`.
    pub fn push(&mut self, start: Instant, write: bool) {
        let end = Instant::now();
        self.ops.push((offset_ns(start), offset_ns(end), write));
    }

    /// Per-op latencies in nanoseconds, in issue order; writes only if asked.
    pub fn latencies(logs: &[WorkerLog], writes_only: bool) -> impl Iterator<Item = u64> + '_ {
        logs.iter()
            .flat_map(|l| &l.ops)
            .filter(move |(_, _, w)| *w || !writes_only)
            .map(|(s, e, _)| e - s)
    }
}

/// Wraps a backend so every session it opens records its op spans.
pub struct Recording<'a> {
    inner: &'a dyn Backend,
    /// Ops each session is about to issue: the size its log is given.
    ops_per_worker: usize,
    logs: Mutex<Vec<WorkerLog>>,
}

impl<'a> Recording<'a> {
    pub fn new(inner: &'a dyn Backend, ops_per_worker: usize) -> Recording<'a> {
        origin();
        Recording {
            inner,
            ops_per_worker,
            logs: Mutex::new(Vec::new()),
        }
    }

    /// The logs of every session opened so far, by worker index.
    pub fn into_logs(self) -> Vec<WorkerLog> {
        let mut logs = self
            .logs
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        logs.sort_by_key(|l| l.worker);
        logs
    }
}

impl Backend for Recording<'_> {
    fn engine(&self) -> String {
        self.inner.engine()
    }

    fn isolation(&self) -> String {
        self.inner.isolation()
    }

    fn open_session(&self, worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        Ok(Box::new(RecordingSession {
            inner: self.inner.open_session(worker)?,
            log: Some(WorkerLog::new(worker, self.ops_per_worker)),
            sink: &self.logs,
        }))
    }
}

struct RecordingSession<'a> {
    inner: Box<dyn Session + 'a>,
    log: Option<WorkerLog>,
    sink: &'a Mutex<Vec<WorkerLog>>,
}

impl Session for RecordingSession<'_> {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        let start = Instant::now();
        let res = self.inner.execute(op, worker, op_index);
        if let Some(log) = &mut self.log {
            log.push(start, op.is_write());
        }
        res
    }

    fn finish(&mut self) -> GdbResult<()> {
        self.inner.finish()
    }

    fn txn_conflicts(&self) -> u64 {
        self.inner.txn_conflicts()
    }
}

impl Drop for RecordingSession<'_> {
    fn drop(&mut self) {
        // A worker that errored out still hands over what it recorded; a
        // poisoned sink only means another worker panicked, the log is whole.
        if let Some(log) = self.log.take() {
            match self.sink.lock() {
                Ok(mut sink) => sink.push(log),
                Err(poisoned) => poisoned.into_inner().push(log),
            }
        }
    }
}
