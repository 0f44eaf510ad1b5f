//! Figure 8 (beyond the paper): multi-client scalability sweep, plus an
//! **overload sweep** and a **locked-vs-snapshot isolation comparison**.
//!
//! The paper measures everything single-threaded; this binary sweeps worker
//! threads (default 1 → 2 → 4 → 8) across every engine under test and two
//! workload mixes, reporting throughput, speedup over one thread, and the
//! p50/p95/p99/max latency tail — through the same `core::report` /
//! `core::summary` machinery as the paper's figures.
//!
//! Each (engine, mix, threads) cell runs under **both read paths**:
//!
//! * `locked` — the original shared-`RwLock` contract (scans block writers,
//!   write-heavy mixes collapse to one effective writer);
//! * `snapshot-cow` — reads pin immutable gm-mvcc epochs and run
//!   lock-free, so the isolation cost (and the read-
//!   throughput scaling it buys under write-heavy mixes) is itself a
//!   measured microbenchmark, rendered as adjacent sections of the scaling
//!   table and distinct `isolation` values in the CSV.
//!
//! After the closed-loop sweep, each (engine, mix) pair is driven **open
//! loop** at 0.5×/1×/2×/4× of its measured closed-loop capacity with a
//! bounded arrival backlog: arrivals that slip further behind schedule than
//! the lateness bound are shed (counted, never executed), so the ≥1× rows
//! terminate in bounded time and report offered vs achieved rate plus a shed
//! column instead of queueing forever.
//!
//! Extra environment variables on top of the `GM_*` set (see `gm_bench`):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `GM_THREADS` | `1,2,4,8` | thread counts to sweep |
//! | `GM_MIXES` | `read-heavy,mixed` | mix names to sweep |
//! | `GM_WL_OPS` | `400` | ops per worker |
//! | `GM_OVERLOAD_FACTORS` | `0.5,1,2,4` | open-loop rates as multiples of measured capacity (empty disables the overload sweep) |
//! | `GM_MAX_LATENESS_MS` | `50` | backlog bound: arrivals later than this are shed |
//!
//! What the sweep shows is asserted elsewhere: shed accounting by
//! `tests/concurrency.rs`, locked and snapshot reads agreeing by
//! `tests/snapshot_consistency.rs`, exemplars resolving by
//! `tests/trace_exemplars.rs`.

use std::time::Duration;

use gm_bench::{config, drive, Env};
use gm_core::report::{Report, RunMode};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId};
use gm_workload::{format_nanos, MixKind, Pacing, SharedEngine, WorkloadConfig};
use graphmark::mvcc::SnapshotMode;

struct Sweep {
    env: Env,
    threads: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    overload_factors: Vec<f64>,
    max_lateness: Duration,
}

fn sweep_from_env() -> Sweep {
    Sweep {
        env: Env::from_env(),
        threads: config::var_list_u32("GM_THREADS", "1,2,4,8"),
        mixes: config::var_mixes("GM_MIXES", "read-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        overload_factors: config::var_list_f64("GM_OVERLOAD_FACTORS", "0.5,1,2,4"),
        max_lateness: config::var_millis("GM_MAX_LATENESS_MS", 50),
    }
}

/// What one snapshot run copied on write, per published epoch: the engine
/// clone's duration next to the pages the storage layer then copied. Empty
/// when counters are off or the run published nothing.
fn copy_amplification(
    before: &gm_obs::RegistrySnapshot,
    after: &gm_obs::RegistrySnapshot,
) -> String {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let publishes = delta("mvcc.cow.publishes");
    if publishes == 0 {
        return String::new();
    }
    let clone_nanos =
        |s: &gm_obs::RegistrySnapshot| s.hist("mvcc.cow.clone_nanos").map_or(0, |h| h.sum);
    format!(
        "  per epoch: clone {}, {:.1} pages / {:.1} KiB copied",
        format_nanos((clone_nanos(after) - clone_nanos(before)) / publishes),
        delta("storage.cow.pages_copied") as f64 / publishes as f64,
        delta("storage.cow.bytes_copied") as f64 / publishes as f64 / 1024.0,
    )
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let sweep = sweep_from_env();
    if sweep.threads.is_empty() || sweep.mixes.is_empty() {
        eprintln!("[fig8] nothing to run: GM_THREADS or GM_MIXES left no valid entries");
        std::process::exit(2);
    }

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig8] dataset {} |V|={} |E|={}, {} engines × {:?} threads × {:?}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        sweep.env.engines.len(),
        sweep.threads,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut report = Report::default();
    for kind in &sweep.env.engines {
        for mix in &sweep.mixes {
            // Closed-loop sweep: each thread count, measuring capacity —
            // under the locked read path and under snapshots,
            // so the isolation cost is itself a measured row pair.
            let mut capacity = 0.0f64;
            for &t in &sweep.threads {
                let cfg = WorkloadConfig {
                    mix: *mix,
                    threads: t,
                    ops_per_worker: sweep.ops_per_worker,
                    seed: sweep.env.seed,
                    op_timeout: sweep.env.timeout,
                    ..WorkloadConfig::default()
                };
                match drive(&SharedEngine::new(kind.make()), &data, &cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[fig8]   {:<14} {:<11} t={:<2} {:<16} {:>9.0} ops/s  p99 {}",
                            r.engine,
                            r.mix,
                            t,
                            r.isolation,
                            r.throughput(),
                            format_nanos(r.hist.p99()),
                        );
                        capacity = capacity.max(r.throughput());
                        report.push(r.to_measurement());
                        rows.push(r.scaling_row());
                    }
                    Err(e) => {
                        eprintln!("[fig8]   {} {} t={t}: FAILED: {e}", kind.name(), mix.name())
                    }
                }
                let before = gm_obs::global().snapshot();
                match drive(&kind.make_snapshot_source(SnapshotMode::Cow), &data, &cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[fig8]   {:<14} {:<11} t={:<2} {:<16} {:>9.0} ops/s  p99 {}{}",
                            r.engine,
                            r.mix,
                            t,
                            r.isolation,
                            r.throughput(),
                            format_nanos(r.hist.p99()),
                            copy_amplification(&before, &gm_obs::global().snapshot()),
                        );
                        report.push(r.to_measurement());
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig8]   {} {} t={t} snapshot: FAILED: {e}",
                        kind.name(),
                        mix.name()
                    ),
                }
            }

            // Overload sweep: open loop at multiples of the measured
            // closed-loop capacity, with a bounded backlog so the >1× rows
            // shed instead of queueing without bound.
            if capacity <= 0.0 || sweep.overload_factors.is_empty() {
                continue;
            }
            let threads = sweep.threads.iter().copied().max().unwrap_or(1);
            for &factor in &sweep.overload_factors {
                let rate = capacity * factor;
                let cfg = WorkloadConfig {
                    mix: *mix,
                    threads,
                    ops_per_worker: sweep.ops_per_worker,
                    seed: sweep.env.seed,
                    op_timeout: sweep.env.timeout,
                    pacing: Pacing::open_bounded(rate, sweep.max_lateness),
                    ..WorkloadConfig::default()
                };
                match drive(&SharedEngine::new(kind.make()), &data, &cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[fig8]   {:<14} {:<11} t={threads:<2} open @{factor:>4}x \
                             ({rate:>9.0}/s offered) {:>9.0} ops/s achieved, shed {} ({:.1}%), p99 {}",
                            r.engine,
                            r.mix,
                            r.throughput(),
                            r.shed(),
                            r.scaling_row().shed_fraction() * 100.0,
                            format_nanos(r.hist.p99()),
                        );
                        report.push(r.to_measurement());
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig8]   {} {} open @{factor}x: FAILED: {e}",
                        kind.name(),
                        mix.name()
                    ),
                }
            }
        }
    }

    println!(
        "\n=== Figure 8 — concurrency scalability (dataset {}) ===",
        data.name
    );
    print!("{}", summary::render_scaling(&rows));
    println!("\n--- run durations via core::report ---");
    print!("{}", report.render_matrix(RunMode::Batch));
    println!("\n--- csv ---");
    print!("{}", summary::scaling_to_csv(&rows));

    gm_bench::finish_traces("fig8", &rows);
}
