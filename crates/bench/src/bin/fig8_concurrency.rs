//! Figure 8 (beyond the paper): multi-client scalability sweep, plus an
//! **overload sweep** and a **locked-vs-snapshot isolation comparison**.
//!
//! The paper measures everything single-threaded; this binary sweeps worker
//! threads (default 1 → 2 → 4 → 8) across every engine under test and two
//! workload mixes, reporting throughput, speedup over one thread, and the
//! p50/p95/p99/max latency tail — through the same `core::report` /
//! `core::summary` machinery as the paper's figures.
//!
//! Each (engine, mix, threads) cell runs under **both read paths** unless
//! `GM_SNAPSHOT_MODE=off`:
//!
//! * `locked` — the original shared-`RwLock` contract (scans block writers,
//!   write-heavy mixes collapse to one effective writer);
//! * `snapshot-cow` / `snapshot-native` — reads pin immutable gm-mvcc
//!   epochs and run lock-free, so the isolation cost (and the read-
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
//! | `GM_SNAPSHOT_MODE` | `cow` | `off` / `cow` / `native` snapshot read path |
//!
//! `--smoke` replaces the environment-driven configuration with a tiny fixed
//! one (tiny dataset, one engine, 2 threads) so CI can exercise the binary
//! on every push in a few seconds. Two smoke personalities:
//!
//! * `GM_SNAPSHOT_MODE` unset/`off` — the overload smoke: fails if the
//!   aggressive open-loop sweep never sheds;
//! * `GM_SNAPSHOT_MODE=cow|native` — the isolation smoke: runs the same
//!   read-only workload under locked and snapshot reads and **fails if the
//!   two disagree on any per-op result count**, then checks that snapshot
//!   reads observed zero epoch skew.

use std::time::Duration;

use gm_bench::{config, Env};
use gm_core::report::{Report, RunMode};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId, Scale};
use gm_obs::trace;
use gm_workload::{run, run_snapshot, MixKind, Pacing, WorkloadConfig};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;

struct Sweep {
    env: Env,
    threads: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    overload_factors: Vec<f64>,
    max_lateness: Duration,
    snapshot: Option<SnapshotMode>,
}

fn sweep_from_env() -> Sweep {
    Sweep {
        env: Env::from_env(),
        threads: config::var_list_u32("GM_THREADS", "1,2,4,8"),
        mixes: config::var_mixes("GM_MIXES", "read-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        overload_factors: config::var_list_f64("GM_OVERLOAD_FACTORS", "0.5,1,2,4"),
        max_lateness: config::var_millis("GM_MAX_LATENESS_MS", 50),
        snapshot: config::var_snapshot_mode(Some(SnapshotMode::Cow)),
    }
}

/// The fixed tiny configuration behind `--smoke`: one engine, 2 threads.
/// With snapshots off it keeps the aggressive overload sweep (shed
/// accounting must engage); with snapshots on it swaps the overload sweep
/// for the locked-vs-snapshot consistency check, so each CI step stays
/// focused and fast.
fn sweep_smoke() -> Sweep {
    let mut env = Env::from_env();
    env.scale = Scale::tiny();
    if std::env::var("GM_ENGINES").is_err() {
        env.engines = vec![EngineKind::LinkedV2];
    }
    let snapshot = config::var_snapshot_mode(None);
    Sweep {
        env,
        threads: if snapshot.is_some() {
            vec![2, 4]
        } else {
            vec![2]
        },
        mixes: if snapshot.is_some() {
            vec![MixKind::WriteHeavy]
        } else {
            vec![MixKind::ReadHeavy]
        },
        ops_per_worker: if snapshot.is_some() { 400 } else { 1_000 },
        overload_factors: if snapshot.is_some() {
            Vec::new()
        } else {
            vec![0.5, 4.0, 32.0]
        },
        max_lateness: Duration::from_millis(1),
        snapshot,
    }
}

/// What one snapshot run copied on write, per published epoch: the engine
/// clone's duration next to the pages the storage layer then copied. Empty
/// when counters are off or the run published nothing.
fn copy_amplification(
    before: &gm_obs::RegistrySnapshot,
    after: &gm_obs::RegistrySnapshot,
    mode: SnapshotMode,
) -> String {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let publishes = delta(&format!("mvcc.{}.publishes", mode.name()));
    if publishes == 0 {
        return String::new();
    }
    let clone_nanos = |s: &gm_obs::RegistrySnapshot| {
        s.hist(&format!("mvcc.{}.clone_nanos", mode.name()))
            .map_or(0, |h| h.sum)
    };
    format!(
        "  per epoch: clone {}, {:.1} pages / {:.1} KiB copied",
        gm_workload::format_nanos((clone_nanos(after) - clone_nanos(before)) / publishes),
        delta("storage.cow.pages_copied") as f64 / publishes as f64,
        delta("storage.cow.bytes_copied") as f64 / publishes as f64 / 1024.0,
    )
}

/// Report how many of the sweep's `p99_exemplar` ids resolve against the
/// flight recorder, and fail a smoke run on any dangling id: the driver
/// promises it only stamps an exemplar whose record landed in the ring.
fn check_exemplars(rows: &[ScalingRow], smoke: bool) {
    if !trace::enabled() {
        return;
    }
    let ring = trace::global_ring();
    let stamped: Vec<u64> = rows
        .iter()
        .map(|r| r.p99_exemplar)
        .filter(|&id| id != 0)
        .collect();
    let dangling = stamped
        .iter()
        .filter(|&&id| ring.find(id).is_none())
        .count();
    eprintln!(
        "[fig8] trace: {}/{} p99 exemplars resolve in the flight recorder",
        stamped.len() - dangling,
        stamped.len()
    );
    if smoke && (dangling > 0 || stamped.is_empty()) {
        eprintln!(
            "[fig8] smoke FAILED: {dangling} dangling p99 exemplars of {} stamped",
            stamped.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep = if smoke {
        sweep_smoke()
    } else {
        sweep_from_env()
    };
    if sweep.threads.is_empty() || sweep.mixes.is_empty() {
        eprintln!("[fig8] nothing to run: GM_THREADS or GM_MIXES left no valid entries");
        std::process::exit(2);
    }

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig8] dataset {} |V|={} |E|={}, {} engines × {:?} threads × {:?}, snapshot mode {}{}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        sweep.env.engines.len(),
        sweep.threads,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        sweep.snapshot.map(|m| m.name()).unwrap_or("off"),
        if smoke { " [smoke]" } else { "" }
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut report = Report::default();
    let mut total_shed = 0u64;
    let mut total_skew = 0u64;
    for kind in &sweep.env.engines {
        for mix in &sweep.mixes {
            // Closed-loop sweep: each thread count, measuring capacity —
            // under the locked read path and (unless off) under snapshots,
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
                let factory = move || kind.make();
                match run(&factory, &data, &cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[fig8]   {:<14} {:<11} t={:<2} {:<16} {:>9.0} ops/s  p99 {}",
                            r.engine,
                            r.mix,
                            t,
                            r.isolation,
                            r.throughput(),
                            gm_workload::format_nanos(r.hist.p99()),
                        );
                        capacity = capacity.max(r.throughput());
                        report.push(r.to_measurement());
                        rows.push(r.scaling_row());
                    }
                    Err(e) => {
                        eprintln!("[fig8]   {} {} t={t}: FAILED: {e}", kind.name(), mix.name())
                    }
                }
                if let Some(mode) = sweep.snapshot {
                    let kind = *kind;
                    let src_factory =
                        move || -> Box<dyn SnapshotSource> { kind.make_snapshot_source(mode) };
                    let before = gm_obs::global().snapshot();
                    match run_snapshot(&src_factory, &data, &cfg) {
                        Ok(r) => {
                            eprintln!(
                                "[fig8]   {:<14} {:<11} t={:<2} {:<16} {:>9.0} ops/s  p99 {}{}",
                                r.engine,
                                r.mix,
                                t,
                                r.isolation,
                                r.throughput(),
                                gm_workload::format_nanos(r.hist.p99()),
                                copy_amplification(&before, &gm_obs::global().snapshot(), mode),
                            );
                            total_skew += r.epoch_skew();
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
                let factory = move || kind.make();
                match run(&factory, &data, &cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[fig8]   {:<14} {:<11} t={threads:<2} open @{factor:>4}x \
                             ({rate:>9.0}/s offered) {:>9.0} ops/s achieved, shed {} ({:.1}%), p99 {}",
                            r.engine,
                            r.mix,
                            r.throughput(),
                            r.shed(),
                            r.scaling_row().shed_fraction() * 100.0,
                            gm_workload::format_nanos(r.hist.p99()),
                        );
                        total_shed += r.shed();
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

    check_exemplars(&rows, smoke);
    if let Some(base) = config::trace_dump_path() {
        match trace::dump_to(&base, &trace::global_ring().snapshot()) {
            Ok(()) => eprintln!("[fig8] traces dumped to {base}.txt and {base}.json"),
            Err(e) => eprintln!("[fig8] GM_TRACE_DUMP to {base} failed: {e}"),
        }
    }

    if smoke {
        match sweep.snapshot {
            // The overload smoke exercises shed accounting: at up to 32×
            // measured capacity with a 1 ms bound, a zero shed count means
            // backpressure never engaged — fail loudly.
            None => {
                if total_shed == 0 {
                    eprintln!(
                        "[fig8] smoke: overload sweep shed 0 ops — backpressure did not engage"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "[fig8] smoke: overload sweep shed {total_shed} ops — backpressure engaged"
                );
            }
            // The isolation smoke: snapshot reads and locked reads must
            // agree on every per-op result count of a read-only workload
            // (the two read paths may differ in cost, never in answers),
            // and in-process snapshot epochs must never skew.
            Some(mode) => {
                let kind = sweep.env.engines[0];
                let cfg = WorkloadConfig {
                    mix: MixKind::ReadOnly,
                    threads: 2,
                    ops_per_worker: 200,
                    seed: sweep.env.seed,
                    op_timeout: sweep.env.timeout,
                    record_cardinalities: true,
                    ..WorkloadConfig::default()
                };
                let factory = move || kind.make();
                let locked = run(&factory, &data, &cfg).expect("locked smoke run");
                let src_factory =
                    move || -> Box<dyn SnapshotSource> { kind.make_snapshot_source(mode) };
                let snap = run_snapshot(&src_factory, &data, &cfg).expect("snapshot smoke run");
                if locked.cardinality_trace() != snap.cardinality_trace() {
                    eprintln!(
                        "[fig8] smoke: snapshot ({}) and locked reads DISAGREE on result \
                         counts for {} — isolation must never change answers",
                        mode.name(),
                        kind.name()
                    );
                    std::process::exit(1);
                }
                if snap.epoch_skew() + total_skew > 0 {
                    eprintln!(
                        "[fig8] smoke: in-process snapshot runs observed epoch skew \
                         ({} + {total_skew}) — epochs must be monotone",
                        snap.epoch_skew()
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "[fig8] smoke: snapshot-{} and locked reads agree on {} per-op counts, \
                     zero epoch skew",
                    mode.name(),
                    locked.cardinality_trace().len()
                );
            }
        }
    }
}
