//! Per-op phase spans: a thread-local span stack with self-time attribution.
//!
//! This generalizes the old `gm_model::lockwait` single-cell pattern: each
//! worker thread carries one accumulator per named [`Phase`], reset at op
//! entry ([`reset_op`]) and collected at op exit ([`take_all`]). Code
//! brackets a region with [`span`] (RAII) or [`timed`] (closure); nested
//! spans attribute **self time** — a child's elapsed time is subtracted
//! from its parent — so every nanosecond lands in exactly one phase and
//! the per-op phase vector sums to at most the end-to-end latency (the
//! invariant the workspace's `tests/obs_phases.rs` checks).
//!
//! Resetting on *entry* rather than exit is the staleness fix: an op that
//! panics or aborts on a poisoned lock unwinds without taking its
//! accumulators, and without the entry reset that residue would be
//! attributed to the next op scheduled on the same worker thread.
//!
//! [`span`] is inert unless the global mode is `phases`; [`add`] and
//! [`timed`] always accumulate, because the legacy lock-wait column
//! predates the mode knob and must not change meaning under `GM_OBS=off`.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Number of named phases.
pub const PHASES: usize = 6;

/// The named phases an op can spend time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Queueing on an engine/shard lock (the legacy `lockwait` signal).
    LockWait = 0,
    /// Executing the query against the engine.
    EngineExec = 1,
    /// Pinning an MVCC snapshot epoch.
    SnapshotPin = 2,
    /// Cloning/freezing the live engine to publish an epoch.
    ClonePublish = 3,
    /// Serializing a request/response frame.
    WireEncode = 4,
    /// Socket send/receive round trip.
    WireIo = 5,
}

impl Phase {
    /// Every phase, in accumulator order.
    pub const ALL: [Phase; PHASES] = [
        Phase::LockWait,
        Phase::EngineExec,
        Phase::SnapshotPin,
        Phase::ClonePublish,
        Phase::WireEncode,
        Phase::WireIo,
    ];

    /// Stable snake_case name (used in column headers and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Phase::LockWait => "lock_wait",
            Phase::EngineExec => "engine_exec",
            Phase::SnapshotPin => "snapshot_pin",
            Phase::ClonePublish => "clone_publish",
            Phase::WireEncode => "wire_encode",
            Phase::WireIo => "wire_io",
        }
    }
}

/// One op's (or one run's — it adds) per-phase nanosecond totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseNanos(pub [u64; PHASES]);

impl PhaseNanos {
    /// All zero.
    pub fn zero() -> PhaseNanos {
        PhaseNanos::default()
    }

    /// Nanoseconds attributed to one phase.
    #[inline]
    pub fn get(&self, p: Phase) -> u64 {
        self.0[p as usize]
    }

    /// Set one phase's value.
    pub fn set(&mut self, p: Phase, nanos: u64) {
        self.0[p as usize] = nanos;
    }

    /// Add to one phase (saturating).
    pub fn add(&mut self, p: Phase, nanos: u64) {
        let slot = &mut self.0[p as usize];
        *slot = slot.saturating_add(nanos);
    }

    /// Fold another vector into this one (saturating, element-wise).
    pub fn accumulate(&mut self, other: &PhaseNanos) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Sum over all phases (saturating).
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The wire cost: encode + socket I/O.
    pub fn wire(&self) -> u64 {
        self.get(Phase::WireEncode)
            .saturating_add(self.get(Phase::WireIo))
    }

    /// True when no phase recorded anything.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

/// A pending span on the thread-local stack.
struct Frame {
    phase: Phase,
    start: Instant,
    /// Elapsed time of completed child spans, subtracted from self time.
    child_nanos: u64,
}

thread_local! {
    static ACC: [Cell<u64>; PHASES] = const { [const { Cell::new(0) }; PHASES] };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Reset all per-op state: accumulators to zero, span stack cleared.
/// Called at op entry by every driver session and the server op loop.
pub fn reset_op() {
    ACC.with(|acc| {
        for c in acc {
            c.set(0);
        }
    });
    STACK.with(|s| s.borrow_mut().clear());
}

/// Add nanoseconds to a phase directly (always live, any mode).
#[inline]
pub fn add(p: Phase, nanos: u64) {
    ACC.with(|acc| {
        let c = &acc[p as usize];
        c.set(c.get().saturating_add(nanos));
    });
}

/// Reset one phase's accumulator (legacy `lockwait::reset`).
pub fn reset(p: Phase) {
    ACC.with(|acc| acc[p as usize].set(0));
}

/// Take one phase's accumulated nanoseconds, leaving zero.
pub fn take(p: Phase) -> u64 {
    ACC.with(|acc| acc[p as usize].replace(0))
}

/// Read one phase's accumulator without clearing it.
pub fn get(p: Phase) -> u64 {
    ACC.with(|acc| acc[p as usize].get())
}

/// Take the whole per-op phase vector, leaving zeroes.
pub fn take_all() -> PhaseNanos {
    ACC.with(|acc| PhaseNanos(std::array::from_fn(|i| acc[i].replace(0))))
}

/// RAII span: times from creation to drop and attributes the *self time*
/// (elapsed minus completed child spans) to `phase`. Inert — no clock
/// read — unless the global mode is `phases`.
#[must_use = "a span measures nothing unless it lives across the region"]
pub fn span(phase: Phase) -> SpanGuard {
    if !crate::phases_on() {
        return SpanGuard { depth: None };
    }
    span_always(phase)
}

/// RAII span that is live in every mode (the lock-wait shim uses this so
/// `GM_OBS=off` keeps the legacy column meaningful).
pub fn span_always(phase: Phase) -> SpanGuard {
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Frame {
            phase,
            start: Instant::now(),
            child_nanos: 0,
        });
        s.len() - 1
    });
    SpanGuard { depth: Some(depth) }
}

/// Guard returned by [`span`]; closing attributes the elapsed self time.
pub struct SpanGuard {
    depth: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else { return };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // A reset_op between creation and drop already discarded this
            // frame; attribute nothing rather than someone else's time.
            if s.len() <= depth {
                return;
            }
            // Guards close LIFO in normal flow; a leaked inner guard (e.g.
            // mem::forget) leaves frames above us — fold their time into
            // ours rather than corrupting the stack.
            s.truncate(depth + 1);
            let frame = s.pop().expect("frame at own depth");
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            add(frame.phase, elapsed.saturating_sub(frame.child_nanos));
            if let Some(parent) = s.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(elapsed);
            }
        });
    }
}

/// Run `f` and attribute its duration to `phase`. Always live: under
/// `phases` it participates in the span stack (self-time attribution);
/// otherwise it is a flat start/stop measurement.
#[inline]
pub fn timed<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    if crate::phases_on() {
        let _guard = span_always(phase);
        f()
    } else {
        let start = Instant::now();
        let out = f();
        add(phase, start.elapsed().as_nanos() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(nanos: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < nanos {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn add_take_reset() {
        reset_op();
        add(Phase::LockWait, 5);
        add(Phase::LockWait, 7);
        add(Phase::EngineExec, 3);
        assert_eq!(get(Phase::LockWait), 12);
        assert_eq!(take(Phase::LockWait), 12);
        assert_eq!(take(Phase::LockWait), 0);
        let all = take_all();
        assert_eq!(all.get(Phase::EngineExec), 3);
        assert_eq!(all.total(), 3);
        add(Phase::WireIo, 9);
        reset_op();
        assert!(take_all().is_zero());
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        reset_op();
        let wall = Instant::now();
        {
            let _outer = span_always(Phase::EngineExec);
            spin(400_000);
            {
                let _inner = span_always(Phase::LockWait);
                spin(400_000);
            }
            spin(100_000);
        }
        let wall = wall.elapsed().as_nanos() as u64;
        let v = take_all();
        let exec = v.get(Phase::EngineExec);
        let lock = v.get(Phase::LockWait);
        assert!(lock >= 400_000, "inner span under-measured: {lock}");
        assert!(exec >= 500_000, "outer self time under-measured: {exec}");
        // Self-time attribution: outer self time plus the nested span is the
        // outer span's duration, which the wall clock read around it bounds;
        // counting the inner span twice overshoots that by `lock` (>= 400
        // us). The bound is the measured wall time, not a fixed budget,
        // because a preemption between the spins is outer self time too.
        assert!(
            exec + lock <= wall,
            "outer span double-counted the nested one: exec={exec} lock={lock} wall={wall}"
        );
    }

    #[test]
    fn reset_mid_span_discards_the_frame() {
        reset_op();
        let guard = span_always(Phase::EngineExec);
        spin(100_000);
        reset_op();
        drop(guard);
        // The guard closed after a reset: it must attribute nothing.
        assert!(take_all().is_zero());
    }

    #[test]
    fn timed_accumulates_in_any_mode() {
        reset_op();
        let out = timed(Phase::LockWait, || {
            spin(200_000);
            42
        });
        assert_eq!(out, 42);
        assert!(get(Phase::LockWait) >= 200_000);
        reset_op();
    }

    #[test]
    fn phase_vector_arithmetic() {
        let mut a = PhaseNanos::zero();
        a.set(Phase::WireEncode, 10);
        a.add(Phase::WireIo, 20);
        let mut b = PhaseNanos::zero();
        b.set(Phase::WireIo, u64::MAX);
        a.accumulate(&b);
        assert_eq!(a.get(Phase::WireIo), u64::MAX);
        assert_eq!(a.wire(), u64::MAX);
        assert_eq!(a.total(), u64::MAX);
        assert!(!a.is_zero());
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn threads_have_independent_accumulators() {
        reset_op();
        add(Phase::LockWait, 100);
        std::thread::spawn(|| {
            assert_eq!(get(Phase::LockWait), 0);
            add(Phase::LockWait, 7);
            assert_eq!(take(Phase::LockWait), 7);
        })
        .join()
        .unwrap();
        assert_eq!(take(Phase::LockWait), 100);
    }
}
