//! Figure 10 (beyond the paper): hash-partitioned sharding sweep — shards ×
//! threads × isolation, with per-shard lock-wait accounting.
//!
//! The fig8 concurrency sweep showed where a single engine-wide `RwLock`
//! stops scaling; this binary measures what per-partition locks buy.
//! For every engine under test and every workload mix it drives the same
//! deterministic workload through three concurrency regimes:
//!
//! * `locked` — the original single-`RwLock` engine (`SharedEngine`), the
//!   baseline every sharded row is read against;
//! * `sharded-locked` — a `gm-shard` composite of `N` engines, each behind
//!   its own lock: reads see one consistent cross-shard state, writes lock
//!   only the shard they land on;
//! * `snapshot-sharded-*` — one MVCC cell per shard (unless
//!   `GM_SNAPSHOT_MODE=off`): reads pin composite epochs (min over shard
//!   epochs), writers on different shards share no mutex at all.
//!
//! Every row carries the **lock-wait** column (nanoseconds ops spent
//! queueing on engine locks, measured through `gm_model::lockwait` at every
//! acquisition site): the single-lock vs per-partition-lock comparison is a
//! measured number, not a claim. Rendered through the same
//! `ScalingRow`/`render_scaling`/CSV machinery as fig8/fig9.
//!
//! Environment knobs on top of the `GM_*` set (see `gm_bench::config`):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `GM_SHARDS` | `1,2,4` | shard counts to sweep |
//! | `GM_THREADS` | `2,4` | worker-thread counts to sweep |
//! | `GM_MIXES` | `write-heavy,mixed` | workload mixes |
//! | `GM_WL_OPS` | `400` | ops per worker |
//! | `GM_SNAPSHOT_MODE` | `cow` | `off` / `cow` / `native` snapshot cells |
//! | `GM_FLEET` | `0` | spawn an N-server loopback fleet and add `@fleet` rows |
//! | `GM_FLEET_ADDRS` | (none) | drive an already-running fleet instead (shard order) |
//!
//! With `GM_FLEET=N` (or `GM_FLEET_ADDRS` pointing at running `gm-server
//! --shard-id i --fleet-size N` processes) every mix × thread point gains a
//! **`@fleet` row**: the same workload driven through `gm-net`'s fleet
//! coordinator — cross-process sharding over batched, pipelined
//! connections — so single-lock, in-process-sharded and fleet-sharded
//! regimes land in one table.
//!
//! What the sweep shows is asserted elsewhere: sharded == unsharded answers
//! by `tests/sharding.rs`, the fleet's replay equality, routing and
//! batching by `crates/net/tests/fleet.rs` and `fleet_proc.rs`. What the
//! lock split buys is the `shard_mixed` workload of `benchmark/`.

use gm_bench::{config, drive, Env};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId};
use gm_net::{Fleet, FleetBackend, Server, ServerHandle};
use gm_workload::{format_nanos, run_backend, MixKind, RunReport, SharedEngine, WorkloadConfig};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;

struct Sweep {
    env: Env,
    shards: Vec<u32>,
    threads: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    snapshot: Option<SnapshotMode>,
}

fn sweep_from_env() -> Sweep {
    Sweep {
        env: Env::from_env(),
        shards: config::var_list_u32("GM_SHARDS", "1,2,4"),
        threads: config::var_list_u32("GM_THREADS", "2,4"),
        mixes: config::var_mixes("GM_MIXES", "write-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        snapshot: config::var_snapshot_mode(Some(SnapshotMode::Cow)),
    }
}

fn wl_config(mix: MixKind, threads: u32, sweep: &Sweep) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker: sweep.ops_per_worker,
        seed: sweep.env.seed,
        op_timeout: sweep.env.timeout,
        ..WorkloadConfig::default()
    }
}

fn log_row(r: &RunReport) {
    eprintln!(
        "[fig10]   {:<20} {:<11} t={:<2} {:<18} {:>9.0} ops/s  lockw/op {}",
        r.engine,
        r.mix,
        r.threads,
        r.isolation,
        r.throughput(),
        format_nanos(r.scaling_row().lock_wait_per_op()),
    );
}

/// A fleet under test: shard servers this process spawned (empty when
/// `GM_FLEET_ADDRS` points at external ones) plus the connected
/// coordinator.
struct AttachedFleet {
    handles: Vec<ServerHandle>,
    fleet: Fleet,
}

impl AttachedFleet {
    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// Resolve the fleet knobs: `GM_FLEET_ADDRS` attaches to running servers
/// (shard order must match their announced identities); otherwise
/// `GM_FLEET=N` (N ≥ 2) spawns N identity-tagged loopback servers hosting
/// `kind`. `None` means no fleet was requested; a requested fleet that
/// cannot be attached is a hard error, not a silently missing row set.
fn attach_fleet(kind: EngineKind) -> Option<AttachedFleet> {
    if let Ok(spec) = std::env::var("GM_FLEET_ADDRS") {
        let addrs: Vec<String> = spec
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !addrs.is_empty() {
            match Fleet::connect(addrs) {
                Ok(fleet) => {
                    return Some(AttachedFleet {
                        handles: Vec::new(),
                        fleet,
                    })
                }
                Err(e) => {
                    eprintln!("[fig10] GM_FLEET_ADDRS fleet attach FAILED: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let n = config::var_u64("GM_FLEET", 0) as usize;
    if n < 2 {
        return None;
    }
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for s in 0..n {
        let spawned = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))
            .map(|srv| srv.with_shard_identity(s as u32, n as u32))
            .and_then(Server::spawn);
        match spawned {
            Ok(h) => {
                addrs.push(h.addr().to_string());
                handles.push(h);
            }
            Err(e) => {
                eprintln!("[fig10] GM_FLEET={n}: shard server {s} spawn FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    match Fleet::connect(addrs) {
        Ok(fleet) => Some(AttachedFleet { handles, fleet }),
        Err(e) => {
            eprintln!("[fig10] GM_FLEET={n} fleet attach FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let sweep = sweep_from_env();
    if sweep.shards.is_empty() || sweep.threads.is_empty() || sweep.mixes.is_empty() {
        eprintln!(
            "[fig10] nothing to run: GM_SHARDS, GM_THREADS or GM_MIXES left no valid entries"
        );
        std::process::exit(2);
    }

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig10] dataset {} |V|={} |E|={}, {} engines × shards {:?} × threads {:?} × {:?}, snapshot mode {}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        sweep.env.engines.len(),
        sweep.shards,
        sweep.threads,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        sweep.snapshot.map(|m| m.name()).unwrap_or("off"),
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    for kind in &sweep.env.engines {
        for mix in &sweep.mixes {
            for &t in &sweep.threads {
                let cfg = wl_config(*mix, t, &sweep);
                // Single-lock baseline: the unsharded engine behind one
                // RwLock — what every sharded row is read against.
                match drive(&SharedEngine::new(kind.make()), &data, &cfg) {
                    Ok(r) => {
                        log_row(&r);
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig10]   {} {} t={t} baseline FAILED: {e}",
                        kind.name(),
                        mix.name()
                    ),
                }
                for &n in &sweep.shards {
                    match drive(&kind.make_sharded(n as usize), &data, &cfg) {
                        Ok(r) => {
                            log_row(&r);
                            rows.push(r.scaling_row());
                        }
                        Err(e) => eprintln!(
                            "[fig10]   {} {} t={t} s={n} sharded FAILED: {e}",
                            kind.name(),
                            mix.name()
                        ),
                    }
                    if let Some(mode) = sweep.snapshot {
                        let source: Box<dyn SnapshotSource> =
                            Box::new(kind.make_sharded_source(n as usize, mode));
                        match drive(&source, &data, &cfg) {
                            Ok(r) => {
                                log_row(&r);
                                rows.push(r.scaling_row());
                            }
                            Err(e) => eprintln!(
                                "[fig10]   {} {} t={t} s={n} snapshot FAILED: {e}",
                                kind.name(),
                                mix.name()
                            ),
                        }
                    }
                }
            }
        }
    }

    // @fleet rows: the same points through the cross-process coordinator.
    // External fleets host one fixed engine, so attach once; spawned
    // fleets get one per engine under test.
    let fleet_engines: &[EngineKind] = if std::env::var("GM_FLEET_ADDRS").is_ok() {
        &sweep.env.engines[..1.min(sweep.env.engines.len())]
    } else {
        &sweep.env.engines
    };
    for kind in fleet_engines {
        let Some(att) = attach_fleet(*kind) else {
            break; // no fleet requested
        };
        for mix in &sweep.mixes {
            for &t in &sweep.threads {
                let cfg = wl_config(*mix, t, &sweep);
                let run = att.fleet.setup(&data, &cfg).and_then(|params| {
                    let backend = FleetBackend::new(&att.fleet, &params, cfg.op_timeout);
                    run_backend(&backend, &data.name, &cfg)
                });
                match run {
                    Ok(r) => {
                        log_row(&r);
                        rows.push(r.scaling_row());
                    }
                    Err(e) => eprintln!(
                        "[fig10]   @fleet {} {} t={t} FAILED: {e}",
                        att.fleet.name(),
                        mix.name()
                    ),
                }
            }
        }
        eprintln!(
            "[fig10] @fleet {}: {} wire frames, {} batched ops, {} routing errors",
            att.fleet.name(),
            att.fleet.round_trips(),
            att.fleet.batched_ops(),
            att.fleet.routing_errors(),
        );
        att.shutdown();
    }

    println!(
        "\n=== Figure 10 — sharded locks vs one big lock (dataset {}) ===",
        data.name
    );
    print!("{}", summary::render_scaling(&rows));
    println!("\n--- csv ---");
    print!("{}", summary::scaling_to_csv(&rows));

    gm_bench::finish_traces("fig10", &rows);
}
