//! # gm-obs — unified observability: metrics registry + per-op phase tracing
//!
//! The paper's methodology is *attribution*: microbenchmarks localize where
//! a graph database spends its time. This crate gives the reproduction the
//! same property at runtime — instead of one end-to-end latency number plus
//! a bolt-on lock-wait column, every op can be split into named **phases**
//! and every subsystem can export **metrics** through one registry:
//!
//! * [`registry`] — a global registry of atomic counters, gauges, and log2
//!   histograms. Registration takes a short lock once per name; every
//!   update after that is a single relaxed atomic op on a cached handle.
//!   [`RegistrySnapshot`]s are plain data: mergeable (pure addition, so
//!   merging is associative and commutative) and renderable as
//!   Prometheus-style text.
//! * [`phase`] — a thread-local **span stack** generalizing the old
//!   `gm_model::lockwait` cell: code brackets a region with
//!   [`phase::span`] and the elapsed time lands in that phase's per-op
//!   accumulator as *self time* (nested spans subtract from their parent),
//!   so the per-op phase vector sums to at most the end-to-end latency.
//!   The driver resets the stack on op entry and rolls the vector into
//!   `OpResult`.
//! * [`hist`] — the one log2 histogram: [`HistSnapshot`] is the plain type
//!   a driver worker records latencies into (with per-bucket trace
//!   exemplars) and every snapshot or merge produces; [`AtomicHistogram`]
//!   is its lock-free shared-write recorder behind registry histograms.
//! * [`trace`] — per-op tracing: deterministic trace ids (seed + worker +
//!   op index, replay-stable), a fixed-capacity lock-free flight recorder
//!   with tail-biased retention, and renderers (aligned table + Chrome
//!   `trace_event` JSON). Gated by its own [`TraceMode`] knob (`GM_TRACE`,
//!   `off|tail|all`) — orthogonal to [`ObsMode`], with the same off-path
//!   guarantee (one relaxed load + branch per probe when `off`).
//!
//! ## Modes
//!
//! The global [`ObsMode`] (set from the `GM_OBS` knob) trades detail for
//! overhead:
//!
//! | mode | phase spans | registry counters | cost on the op path |
//! |---|---|---|---|
//! | `off` | no | no | one relaxed load + branch per site |
//! | `counters` | no | yes | + one atomic RMW per counter site |
//! | `phases` (default) | yes | yes | + two `Instant::now` per span |
//!
//! The legacy lock-wait accounting (`gm_model::lockwait`, now a shim over
//! [`phase`]) stays on in every mode — it predates this crate and the
//! fig8/fig10 lock-wait columns must not change meaning under `GM_OBS=off`.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod hist;
pub mod phase;
pub mod registry;
pub mod trace;

pub use hist::{format_nanos, AtomicHistogram, HistSnapshot, BUCKETS};
pub use phase::{Phase, PhaseNanos, SpanGuard, PHASES};
pub use registry::{global, Counter, Gauge, Histo, Registry, RegistrySnapshot};
pub use trace::{TailGate, TraceMode, TraceOrigin, TraceRecord, TraceRing};

/// How much the observability layer records (see the crate docs table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsMode {
    /// Nothing beyond the legacy lock-wait accounting.
    Off = 0,
    /// Registry counters/gauges/histograms, no per-op phase spans.
    Counters = 1,
    /// Counters plus per-op phase spans (the default).
    Phases = 2,
}

impl ObsMode {
    /// Knob spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Phases => "phases",
        }
    }

    /// Parse a knob value (`off` / `counters` / `phases`).
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ObsMode::Off),
            "counters" => Some(ObsMode::Counters),
            "phases" | "on" | "full" => Some(ObsMode::Phases),
            _ => None,
        }
    }
}

/// The process-wide mode. Phases by default: the figures carry their phase
/// breakdown out of the box, and `GM_OBS=off` recovers the bare path.
static MODE: AtomicU8 = AtomicU8::new(ObsMode::Phases as u8);

/// Set the process-wide observability mode (idempotent, any thread).
pub fn set_mode(mode: ObsMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current process-wide mode.
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Counters,
        _ => ObsMode::Phases,
    }
}

/// Are registry counters/gauges/histograms live? (`counters` or `phases`.)
#[inline]
pub fn counters_on() -> bool {
    MODE.load(Ordering::Relaxed) >= ObsMode::Counters as u8
}

/// Are per-op phase spans live? (`phases` only.)
#[inline]
pub fn phases_on() -> bool {
    MODE.load(Ordering::Relaxed) >= ObsMode::Phases as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_orders() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse(" Counters "), Some(ObsMode::Counters));
        assert_eq!(ObsMode::parse("phases"), Some(ObsMode::Phases));
        assert_eq!(ObsMode::parse("bogus"), None);
        assert!(ObsMode::Off < ObsMode::Counters);
        assert!(ObsMode::Counters < ObsMode::Phases);
        for m in [ObsMode::Off, ObsMode::Counters, ObsMode::Phases] {
            assert_eq!(ObsMode::parse(m.name()), Some(m));
        }
    }
}
