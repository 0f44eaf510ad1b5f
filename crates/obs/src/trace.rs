//! gm-trace: deterministic per-op trace ids and a tail-biased flight
//! recorder.
//!
//! Aggregate phase histograms answer *where the run's time went*; they
//! cannot answer *which op was slow and where its time went* — the question
//! every tail-latency investigation starts with. This module closes that
//! gap with three pieces:
//!
//! * **Deterministic trace ids** — [`derive_id`] mixes (seed, worker,
//!   op index) through a splitmix64-style finalizer, so the same replay
//!   produces bit-identical ids and a trace id printed by one run can be
//!   looked up in the next. Id 0 is reserved for "not traced". The id
//!   travels with the op: the driver stamps it into the thread-local
//!   [`begin_op`] slot, the net client copies [`current`] into the `ExecOp`
//!   frame, and the server adopts the *client's* id — one id names one op
//!   across both processes.
//! * **A fixed-capacity lock-free ring** ([`TraceRing`]) — the flight
//!   recorder. Writers claim a slot by ticket and publish through a per-slot
//!   seqlock generation (odd = write in progress), so concurrent writers
//!   across wraparound can collide (the loser's record is dropped) but a
//!   reader can never observe a torn record: [`TraceRing::snapshot`]
//!   re-validates the generation after copying and discards mid-write
//!   slots.
//! * **Tail-biased retention** ([`TailGate`]) — ops slower than a moving
//!   threshold are always kept; the threshold self-adjusts (+1/16 on a tail
//!   hit, −1/256 otherwise) toward an ~6% keep rate, so p99 ops reliably
//!   land in the recorder no matter how the latency regime drifts. In
//!   `tail` mode the non-tail remainder is head-sampled 1-in-128 by the
//!   trace id's low bits — deterministic, RNG-free. `all` keeps everything;
//!   `off` records nothing.
//!
//! ## The `off` guarantee
//!
//! Mirroring `GM_OBS=off`: with [`TraceMode::Off`] every probe on the op
//! path folds to one relaxed load and a branch — [`derive_id`] returns 0
//! without mixing, [`record_op`] returns before reading any clock, and the
//! global ring is never even allocated. The regression test in
//! `tests/prop_trace.rs` and the `trace_smoke` CI gate both pin this down.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::OnceLock;
use std::time::Instant;

use crate::phase::{Phase, PhaseNanos, PHASES};

/// How much the trace layer records (the `GM_TRACE` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceMode {
    /// No ids, no records, no clock reads.
    Off = 0,
    /// Always-on flight recorder: tail ops always kept, the rest
    /// head-sampled 1-in-128 (the default).
    Tail = 1,
    /// Every completed op is recorded (subject to ring capacity).
    All = 2,
}

impl TraceMode {
    /// Knob spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Tail => "tail",
            TraceMode::All => "all",
        }
    }

    /// Parse a knob value (`off` / `tail` / `all`).
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(TraceMode::Off),
            "tail" | "on" => Some(TraceMode::Tail),
            "all" | "full" => Some(TraceMode::All),
            _ => None,
        }
    }
}

/// The process-wide trace mode. `tail` by default: the flight recorder is
/// always on, and `GM_TRACE=off` recovers the bare path.
static MODE: AtomicU8 = AtomicU8::new(TraceMode::Tail as u8);

/// Set the process-wide trace mode (idempotent, any thread).
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode as u8, Relaxed);
}

/// The current process-wide trace mode.
pub fn mode() -> TraceMode {
    match MODE.load(Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Tail,
        _ => TraceMode::All,
    }
}

/// Is any tracing live? One relaxed load — the whole off-path cost.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Relaxed) != TraceMode::Off as u8
}

/// The process-start instant every monotonic stamp in this crate is
/// relative to (trace `start_us`, the registry snapshot's `captured_at_us`).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first call in this process — the shared monotonic
/// origin for trace timestamps and stats-snapshot stamps. Two readings diff
/// into a true interval (monotonic clock, no wall-time steps).
pub fn uptime_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The splitmix64-style mixer behind [`derive_id`], exposed separately so
/// tests (and tools resolving a printed id back to its op) can compute ids
/// without consulting the mode. Never returns 0 (reserved for "no trace").
#[inline]
pub fn mix_id(seed: u64, worker: u32, op_index: u64) -> u64 {
    let mut z = seed
        ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ op_index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// The deterministic trace id for one driver op, or 0 when tracing is off
/// (the off-path: one relaxed load, no mixing).
#[inline]
pub fn derive_id(seed: u64, worker: u32, op_index: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    mix_id(seed, worker, op_index)
}

thread_local! {
    /// The trace id of the op currently executing on this thread (0 = none).
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Mark `id` as the trace id of the op now executing on this thread. The
/// net client reads it back with [`current`] to stamp outgoing `ExecOp`
/// frames; the server calls this with the *client's* id so both processes
/// record under one name.
#[inline]
pub fn begin_op(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// The trace id of the op currently executing on this thread (0 = none).
#[inline]
pub fn current() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Which process recorded a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceOrigin {
    /// The driver/client side: end-to-end latency, wire phases, and the
    /// server-reported phases stitched in from `ExecDone`.
    Client = 0,
    /// The server side: the op's phase tree as the server measured it.
    Server = 1,
}

impl TraceOrigin {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            TraceOrigin::Client => "client",
            TraceOrigin::Server => "server",
        }
    }

    fn from_u8(b: u8) -> TraceOrigin {
        if b == 1 {
            TraceOrigin::Server
        } else {
            TraceOrigin::Client
        }
    }
}

/// One captured op: a fixed-size, heap-free record (`Copy`, 11 machine
/// words) so recording never allocates on the op path.
///
/// `op_code` is a compact display code chosen by the recorder — the
/// workload driver uses the paper's query number for reads and `200 +
/// write-op index` for CUD writes ([`op_code_label`] renders both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Deterministic trace id ([`derive_id`]); never 0 in a stored record.
    pub id: u64,
    /// Worker (client) index that issued the op.
    pub worker: u32,
    /// Position in that worker's deterministic op sequence.
    pub op_index: u64,
    /// Compact op display code (see type docs).
    pub op_code: u16,
    /// Process-uptime microseconds at op start ([`uptime_us`] origin) —
    /// the `ts` of the Chrome `trace_event` render.
    pub start_us: u64,
    /// End-to-end latency of the op in nanoseconds.
    pub total_nanos: u64,
    /// Per-phase self-time split (sums to at most `total_nanos` on the
    /// recording side; a stitched client record folds the server-reported
    /// phases in).
    pub phases: PhaseNanos,
    /// Which process recorded this.
    pub origin: TraceOrigin,
    /// Kept because it crossed the moving tail threshold (as opposed to
    /// head-sampling or `all` mode).
    pub tail: bool,
}

/// Render an `op_code` under the driver's convention: `Q{n}` for the
/// paper's read queries, `W{i}` for CUD writes, `-` for 0/unknown.
pub fn op_code_label(code: u16) -> String {
    match code {
        0 => "-".into(),
        c if c >= 200 => format!("W{}", c - 200),
        c => format!("Q{c}"),
    }
}

/// Words per packed record: id, packed meta, op_index, start_us,
/// total_nanos, and the six phase slots.
const REC_WORDS: usize = 5 + PHASES;

fn pack(rec: &TraceRecord) -> [u64; REC_WORDS] {
    let meta = ((rec.worker as u64) << 32)
        | ((rec.op_code as u64) << 16)
        | ((rec.origin as u64) << 8)
        | rec.tail as u64;
    let mut w = [0u64; REC_WORDS];
    w[0] = rec.id;
    w[1] = meta;
    w[2] = rec.op_index;
    w[3] = rec.start_us;
    w[4] = rec.total_nanos;
    w[5..].copy_from_slice(&rec.phases.0);
    w
}

fn unpack(w: &[u64; REC_WORDS]) -> TraceRecord {
    let meta = w[1];
    let mut phases = PhaseNanos::zero();
    phases.0.copy_from_slice(&w[5..]);
    TraceRecord {
        id: w[0],
        worker: (meta >> 32) as u32,
        op_code: (meta >> 16) as u16,
        origin: TraceOrigin::from_u8((meta >> 8) as u8),
        tail: meta & 1 == 1,
        op_index: w[2],
        start_us: w[3],
        total_nanos: w[4],
        phases,
    }
}

/// One ring slot: a seqlock generation counter guarding a packed record.
/// `seq` is even when the slot is stable (generation `seq/2`), odd while a
/// writer is mid-publish. Readers copy the words and re-check `seq`; any
/// change means the copy may be torn and is discarded.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; REC_WORDS],
}

/// The flight recorder: a fixed-capacity MPMC ring of [`TraceRecord`]s.
///
/// Writers take a global ticket (`fetch_add`) and publish into
/// `ticket % capacity` under that slot's seqlock. Two writers racing the
/// same slot across a wraparound resolve by generation: the claim CAS of
/// the loser fails and its record is **dropped** (a flight recorder keeps
/// recent history; it never blocks the op path to keep a particular
/// record). Readers never block writers and never observe torn records.
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding up to `capacity` records (clamped to `[16, 1<<20]`).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.clamp(16, 1 << 20);
        TraceRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (including dropped-on-collision ones).
    pub fn pushed(&self) -> u64 {
        // gm-check: relaxed(monotonic statistics counter; read for display only)
        self.head.load(Relaxed)
    }

    /// Publish one record. Returns `false` when the record was dropped:
    /// either tracing is off, the id is 0, or a concurrent writer raced
    /// this slot (collision under wraparound).
    pub fn push(&self, rec: &TraceRecord) -> bool {
        if rec.id == 0 {
            return false;
        }
        // gm-check: relaxed(ticket counter only orders slot choice; publication is the seq CAS/Release below)
        let ticket = self.head.fetch_add(1, Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(ticket % cap) as usize];
        // Final even seq for this generation; the odd claim value precedes it.
        let target = (ticket / cap + 1) * 2;
        let prev = slot.seq.load(Acquire);
        if prev >= target - 1 || prev % 2 == 1 {
            // A later generation already claimed or published this slot
            // (our ticket lost a full wraparound race), or an earlier one is
            // still mid-write: claiming over it would let its closing store
            // move `seq` back to an even value while our words are half
            // written, which a reader would accept. Drop.
            return false;
        }
        if slot
            .seq
            .compare_exchange(prev, target - 1, Acquire, Relaxed)
            .is_err()
        {
            // Another writer claimed the slot between our load and CAS.
            return false;
        }
        for (w, v) in slot.words.iter().zip(pack(rec)) {
            // gm-check: relaxed(word stores are published by the Release seq store below)
            w.store(v, Relaxed);
        }
        slot.seq.store(target, Release);
        true
    }

    /// Copy out every stable record, oldest ticket first. Slots mid-write
    /// or overwritten during the copy are skipped — never returned torn.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for ticket in lo..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let s1 = slot.seq.load(Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or a writer is mid-publish
            }
            let words: [u64; REC_WORDS] =
                // gm-check: relaxed(seqlock read side; the fence + seq re-check below reject torn copies)
                std::array::from_fn(|i| slot.words[i].load(Relaxed));
            fence(Acquire);
            // gm-check: relaxed(the Acquire fence above orders this re-check after the word loads)
            if slot.seq.load(Relaxed) != s1 {
                continue; // a writer raced the copy: discard, never tear
            }
            out.push(unpack(&words));
        }
        out
    }

    /// Find the most recent stable record with this trace id (a client and
    /// a server record of the same remote op share an id; this returns the
    /// later-pushed one).
    pub fn find(&self, id: u64) -> Option<TraceRecord> {
        if id == 0 {
            return None;
        }
        self.snapshot().into_iter().rev().find(|r| r.id == id)
    }
}

/// The moving tail threshold: ops slower than it are always retained.
///
/// Self-adjusting, lock-free: a tail hit raises the threshold by 1/16, a
/// non-tail op decays it by 1/256, so the keep rate converges near
/// 1/17 ≈ 6% of ops — comfortably covering the p99 — and tracks latency
/// regime changes in either direction. One gate per latency population
/// (the driver keeps one per run/mix; the server one per process).
#[derive(Debug, Default)]
pub struct TailGate {
    thr: AtomicU64,
}

impl TailGate {
    /// A fresh gate (threshold initializes from the first observation).
    pub const fn new() -> TailGate {
        TailGate {
            thr: AtomicU64::new(0),
        }
    }

    /// The current threshold in nanoseconds (0 until the first sample).
    pub fn threshold(&self) -> u64 {
        // gm-check: relaxed(threshold is an independent scalar; no data is published under it)
        self.thr.load(Relaxed)
    }

    /// Observe one op's end-to-end nanoseconds; returns whether it
    /// qualifies as tail. The first observation seeds the threshold at 2×
    /// itself (and counts as tail — the first op of a run is always worth
    /// keeping).
    pub fn observe(&self, nanos: u64) -> bool {
        // gm-check: relaxed(threshold adaptation tolerates lost updates; it is a moving estimate, not a count)
        let t = self.thr.load(Relaxed);
        if t == 0 {
            let seed = nanos.max(1).saturating_mul(2);
            // gm-check: relaxed(see above)
            let _ = self.thr.compare_exchange(0, seed, Relaxed, Relaxed);
            return true;
        }
        if nanos > t {
            // gm-check: relaxed(see above)
            self.thr.fetch_add((t >> 4).max(1), Relaxed);
            true
        } else {
            let dec = (t >> 8).max(1);
            if t > dec {
                // gm-check: relaxed(see above)
                self.thr.fetch_sub(dec, Relaxed);
            }
            false
        }
    }
}

/// Global ring capacity, settable (via `GM_TRACE_CAP`) until the first
/// record forces allocation.
static CAP: AtomicUsize = AtomicUsize::new(4096);
static RING: OnceLock<TraceRing> = OnceLock::new();

/// Set the global ring's capacity. A no-op once the ring exists (call it
/// during startup, before the first recorded op).
pub fn set_capacity(cap: usize) {
    // gm-check: relaxed(startup-only configuration scalar)
    CAP.store(cap.clamp(16, 1 << 20), Relaxed);
}

/// The process-wide flight recorder (allocated on first use).
pub fn global_ring() -> &'static TraceRing {
    // gm-check: relaxed(capacity was stored at startup; OnceLock publishes the ring itself)
    RING.get_or_init(|| TraceRing::new(CAP.load(Relaxed)))
}

/// Record one completed op into the global flight recorder, applying the
/// retention policy. Returns `true` only when the record actually landed in
/// the ring — callers that print the id (histogram exemplars) use this so
/// every printed id resolves to a retrievable record.
///
/// Off-path: with `id == 0` or `GM_TRACE=off` this returns immediately —
/// no clock read, no allocation, no ring access.
#[allow(clippy::too_many_arguments)] // one flat call per op on the hot path; a builder would allocate
pub fn record_op(
    gate: &TailGate,
    id: u64,
    worker: u32,
    op_index: u64,
    op_code: u16,
    origin: TraceOrigin,
    total_nanos: u64,
    phases: PhaseNanos,
) -> bool {
    if id == 0 {
        return false;
    }
    let (keep, tail) = match mode() {
        TraceMode::Off => return false,
        TraceMode::All => {
            // Keep everything, but still tag tails (and keep the gate warm
            // so a later switch to `tail` mode starts calibrated).
            (true, gate.observe(total_nanos))
        }
        TraceMode::Tail => {
            let tail = gate.observe(total_nanos);
            // Head-sample the non-tail remainder 1-in-128 by the id's low
            // bits: deterministic across replays, no RNG on the op path.
            (tail || id & 0x7F == 0, tail)
        }
    };
    if !keep {
        return false;
    }
    let start_us = uptime_us().saturating_sub(total_nanos / 1_000);
    global_ring().push(&TraceRecord {
        id,
        worker,
        op_index,
        op_code,
        start_us,
        total_nanos,
        phases,
        origin,
        tail,
    })
}

// ----- renderers ------------------------------------------------------------

/// Render records as an aligned text table (one line per record, phases as
/// self-time columns, newest last).
pub fn render_table(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<6} {:>6} {:>8} {:<6} {:>12} {:>12} {:>5}",
        "trace_id", "origin", "worker", "op_idx", "op", "start_us", "total_ns", "tail"
    ));
    for p in Phase::ALL {
        out.push_str(&format!(" {:>13}", p.name()));
    }
    out.push('\n');
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_us, r.id));
    for r in sorted {
        out.push_str(&format!(
            "{:#018x} {:<6} {:>6} {:>8} {:<6} {:>12} {:>12} {:>5}",
            r.id,
            r.origin.name(),
            r.worker,
            r.op_index,
            op_code_label(r.op_code),
            r.start_us,
            r.total_nanos,
            if r.tail { "yes" } else { "no" }
        ));
        for p in Phase::ALL {
            out.push_str(&format!(" {:>13}", r.phases.get(p)));
        }
        out.push('\n');
    }
    out
}

/// Render records as Chrome `trace_event` JSON (load via `chrome://tracing`
/// or Perfetto). Each record becomes one complete (`"ph":"X"`) event per
/// op, with its phases as back-to-back child events — phase *ordering*
/// within the op window is a rendering convention (only self-times are
/// recorded), but widths are exact.
pub fn render_chrome_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for r in records {
        let pid = r.origin.name();
        let dur_us = (r.total_nanos / 1_000).max(1);
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":\"{}\",\"tid\":{},\"args\":{{\"trace_id\":\"{:#x}\",\
             \"op_index\":{},\"tail\":{}}}}}",
            op_code_label(r.op_code),
            r.start_us,
            dur_us,
            pid,
            r.worker,
            r.id,
            r.op_index,
            r.tail
        ));
        let mut ts = r.start_us;
        for p in Phase::ALL {
            let nanos = r.phases.get(p);
            if nanos == 0 {
                continue;
            }
            let dur = (nanos / 1_000).max(1);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":{dur},\"pid\":\"{pid}\",\"tid\":{}}}",
                p.name(),
                r.worker
            ));
            ts += dur;
        }
    }
    out.push_str("]}");
    out
}

/// Dump records to `<base>.txt` (aligned table) and `<base>.json` (Chrome
/// `trace_event`), the `GM_TRACE_DUMP` path.
pub fn dump_to(base: &str, records: &[TraceRecord]) -> std::io::Result<()> {
    std::fs::write(format!("{base}.txt"), render_table(records))?;
    std::fs::write(format!("{base}.json"), render_chrome_json(records))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_names() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse(" Tail "), Some(TraceMode::Tail));
        assert_eq!(TraceMode::parse("all"), Some(TraceMode::All));
        assert_eq!(TraceMode::parse("bogus"), None);
        for m in [TraceMode::Off, TraceMode::Tail, TraceMode::All] {
            assert_eq!(TraceMode::parse(m.name()), Some(m));
        }
        assert!(TraceMode::Off < TraceMode::Tail);
    }

    #[test]
    fn ids_are_deterministic_distinct_and_nonzero() {
        let a = mix_id(42, 0, 0);
        assert_eq!(a, mix_id(42, 0, 0), "same inputs, same id");
        assert_ne!(a, mix_id(42, 0, 1));
        assert_ne!(a, mix_id(42, 1, 0));
        assert_ne!(a, mix_id(43, 0, 0));
        // No zero over a realistic sweep (0 means "no trace").
        for w in 0..8u32 {
            for i in 0..2_000u64 {
                assert_ne!(mix_id(42, w, i), 0);
            }
        }
    }

    #[test]
    fn record_pack_round_trips() {
        let mut phases = PhaseNanos::zero();
        phases.set(Phase::EngineExec, 12_345);
        phases.set(Phase::WireIo, u64::MAX);
        let rec = TraceRecord {
            id: 0xDEAD_BEEF_0000_0001,
            worker: 7,
            op_index: 99,
            op_code: 23,
            start_us: 1_000_000,
            total_nanos: 5_000_000,
            phases,
            origin: TraceOrigin::Server,
            tail: true,
        };
        assert_eq!(unpack(&pack(&rec)), rec);
        let plain = TraceRecord {
            origin: TraceOrigin::Client,
            tail: false,
            ..rec
        };
        assert_eq!(unpack(&pack(&plain)), plain);
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_records() {
        let ring = TraceRing::new(16);
        assert_eq!(ring.capacity(), 16);
        let rec = |i: u64| TraceRecord {
            id: i + 1,
            worker: 0,
            op_index: i,
            op_code: 8,
            start_us: i,
            total_nanos: 100,
            phases: PhaseNanos::zero(),
            origin: TraceOrigin::Client,
            tail: false,
        };
        for i in 0..40 {
            assert!(ring.push(&rec(i)), "uncontended push must land");
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 16, "ring holds exactly its capacity");
        // Oldest surviving ticket is 24; order is oldest-first.
        assert_eq!(snap.first().unwrap().op_index, 24);
        assert_eq!(snap.last().unwrap().op_index, 39);
        assert!(ring.find(40).is_some(), "recent ids resolve");
        assert!(ring.find(1).is_none(), "evicted ids do not");
        assert!(ring.find(0).is_none(), "id 0 never resolves");
        assert_eq!(ring.pushed(), 40);
    }

    #[test]
    fn zero_id_records_are_refused() {
        let ring = TraceRing::new(16);
        let rec = TraceRecord {
            id: 0,
            worker: 0,
            op_index: 0,
            op_code: 0,
            start_us: 0,
            total_nanos: 0,
            phases: PhaseNanos::zero(),
            origin: TraceOrigin::Client,
            tail: false,
        };
        assert!(!ring.push(&rec));
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn tail_gate_converges_to_a_few_percent_keep_rate() {
        let gate = TailGate::new();
        assert_eq!(gate.threshold(), 0);
        assert!(gate.observe(1_000), "first sample is always tail");
        // A steady stream of ~1µs ops with occasional 10µs spikes: after
        // warm-up the gate must keep the spikes and only a sliver of the
        // steady stream.
        for _ in 0..2_000 {
            gate.observe(1_000);
        }
        let mut kept_steady = 0;
        let mut kept_spikes = 0;
        for i in 0..1_000 {
            if i % 100 == 0 {
                if gate.observe(10_000) {
                    kept_spikes += 1;
                }
            } else if gate.observe(1_000) {
                kept_steady += 1;
            }
        }
        assert_eq!(kept_spikes, 10, "every spike is tail");
        assert!(
            kept_steady < 250,
            "steady-state keep rate must stay tail-biased, kept {kept_steady}/990"
        );
        assert!(
            gate.threshold() > 1_000,
            "threshold sits above the steady stream"
        );
    }

    #[test]
    fn tail_gate_tracks_a_regime_change_downward() {
        let gate = TailGate::new();
        for _ in 0..500 {
            gate.observe(1_000_000); // 1ms regime
        }
        let high = gate.threshold();
        for _ in 0..5_000 {
            gate.observe(1_000); // regime drops to 1µs
        }
        assert!(
            gate.threshold() < high,
            "threshold must decay toward the new regime"
        );
    }

    #[test]
    fn op_code_labels() {
        assert_eq!(op_code_label(0), "-");
        assert_eq!(op_code_label(23), "Q23");
        assert_eq!(op_code_label(201), "W1");
    }

    #[test]
    fn renders_mention_every_record() {
        let rec = TraceRecord {
            id: 0xABCD,
            worker: 3,
            op_index: 17,
            op_code: 23,
            start_us: 42,
            total_nanos: 9_000,
            phases: {
                let mut p = PhaseNanos::zero();
                p.set(Phase::EngineExec, 6_000);
                p.set(Phase::WireIo, 2_000);
                p
            },
            origin: TraceOrigin::Client,
            tail: true,
        };
        let table = render_table(&[rec]);
        assert!(table.contains("0x000000000000abcd"), "{table}");
        assert!(table.contains("Q23"), "{table}");
        assert!(table.contains("engine_exec"), "{table}");
        let json = render_chrome_json(&[rec]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"Q23\""), "{json}");
        assert!(json.contains("\"name\":\"engine_exec\""), "{json}");
        assert!(json.contains("\"trace_id\":\"0xabcd\""), "{json}");
    }
}
