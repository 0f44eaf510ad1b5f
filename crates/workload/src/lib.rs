//! # gm-workload — concurrent multi-client workload driver
//!
//! The paper measures every microbenchmark single-threaded; this crate adds
//! the axis it leaves open — behavior under **concurrent clients** — and
//! turns graphmark from a sequential harness into a multi-client benchmark
//! system:
//!
//! * [`mix`] — declarative workload mixes (read-heavy / write-heavy /
//!   scan-heavy / mixed / read-only) over the paper's 35 microbenchmark
//!   operations plus CUD writes, with a seeded deterministic RNG per worker;
//! * [`driver`] — a thread-pooled closed-loop and open-loop (fixed arrival
//!   rate) driver fanning the mix across N workers. Open-loop pacing takes
//!   an optional backlog bound: arrivals that slip further behind schedule
//!   than the bound are **shed** (counted, not executed), so overload runs
//!   terminate in bounded time and report offered vs achieved rate
//!   honestly. The measured loop is transport-agnostic
//!   ([`driver::Backend`] / [`driver::Session`]) and has two entry points,
//!   [`run_backend`] and its sequential reference
//!   [`run_backend_sequential`];
//! * [`host`] — the one hosting seam: a [`Host`] says how concurrent
//!   clients share a graph (a locked engine, an MVCC snapshot source, or
//!   `gm-shard`'s per-shard-locked composite); [`prepare`] loads one,
//!   [`HostBackend`] drives one in process, and [`execute_op`] runs one op
//!   against one — for the in-process sessions and `gm-net`'s server alike;
//! * per-worker log2-bucketed latency histograms (`gm_obs`'s
//!   [`HistSnapshot`]: p50/p95/p99/max plus trace exemplars) and throughput
//!   counters, merged lock-free when the run ends and reported through
//!   `gm_core::report` / `gm_core::summary` next to the paper's figures.
//!
//! Determinism contract: a run is fully described by `(mix, seed, threads,
//! ops_per_worker)`. Each worker replays the same op sequence regardless of
//! interleaving, and for read-only mixes the observed results are
//! bit-identical to a sequential replay — the cross-engine test suite
//! enforces this against the paper's sequential `Runner`.

pub mod driver;
pub mod host;
pub mod mix;

pub use driver::{
    apply_write, run_backend, run_backend_sequential, Backend, OpResult, Pacing, RunReport,
    Session, WorkerStats, WorkloadConfig, ERR_CARD, SHED_CARD, SNAPSHOT_PIN_STALENESS,
    WORKLOAD_SLOTS,
};
pub use gm_obs::{format_nanos, HistSnapshot, Phase, PhaseNanos};
pub use host::{
    execute_op, prepare, read_once, Host, HostBackend, LocalBackend, ReadFn, SharedEngine,
    SnapshotBackend,
};
pub use mix::{Mix, MixKind, Op, WriteOp};
