//! Figure 11 (beyond the paper): epoch-pinned write transactions — atomic
//! cross-shard commit cost vs autocommit, with conflict accounting.
//!
//! The sharding PRs made *reads* atomic across shards (composite epochs
//! under a seqlock); the transactions PR makes *writes* atomic too: a
//! `WriteTxn` pins a read epoch at `begin`, buffers its write set with
//! read-your-writes overlay semantics, and `commit` validates
//! first-committer-wins against the source's transaction log before
//! replaying and publishing every touched shard inside one seqlock window.
//! This binary measures what that buys and what it costs:
//!
//! * `snapshot-*` rows — the autocommit baseline: every driver write goes
//!   straight through `SnapshotSource::with_write`;
//! * `snapshot-*+txn` rows — the same deterministic workload with each
//!   worker buffering `GM_TXN_OPS` writes per epoch-pinned transaction;
//!   commits that lose first-committer-wins validation are counted in the
//!   `txn_conflicts` column (the whole buffered set is discarded — that is
//!   the semantics, not an error).
//!
//! Rendered through the same `ScalingRow`/`render_scaling`/CSV machinery as
//! fig8–fig10; the CSV gains a trailing `txn_conflicts` column.
//!
//! Environment knobs on top of the `GM_*` set (see `gm_bench::config`):
//!
//! | var | default | meaning |
//! |---|---|---|
//! | `GM_SHARDS` | `1,4` | shard counts to sweep |
//! | `GM_THREADS` | `2,4` | worker-thread counts to sweep |
//! | `GM_MIXES` | `write-heavy,mixed` | workload mixes |
//! | `GM_WL_OPS` | `400` | ops per worker |
//! | `GM_TXN_OPS` | `8` | writes buffered per transaction (0 = autocommit) |
//! | `GM_SNAPSHOT_MODE` | `cow` | `cow` / `native` snapshot cells |
//!
//! What the sweep shows is asserted elsewhere: replay equality and
//! conflict accounting by `gm-workload`'s driver tests, atomic cross-shard
//! commits under a racing pinner and first-committer-wins by `gm-shard`'s
//! and `gm-mvcc`'s transaction tests.

use gm_bench::{config, Env};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId};
use gm_workload::{prepare, run_backend, HostBackend, MixKind, RunReport, WorkloadConfig};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};

struct Sweep {
    env: Env,
    shards: Vec<u32>,
    threads: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    txn_ops: u64,
    mode: SnapshotMode,
}

fn sweep_from_env() -> Sweep {
    Sweep {
        env: Env::from_env(),
        shards: config::var_list_u32("GM_SHARDS", "1,4"),
        threads: config::var_list_u32("GM_THREADS", "2,4"),
        mixes: config::var_mixes("GM_MIXES", "write-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        txn_ops: config::var_u64("GM_TXN_OPS", 8),
        // Transactions need a snapshot source; "off" makes no sense here.
        mode: config::var_snapshot_mode(Some(SnapshotMode::Cow)).unwrap_or(SnapshotMode::Cow),
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
        "[fig11]   {:<20} {:<11} t={:<2} {:<22} {:>9.0} ops/s  conflicts {}",
        r.engine,
        r.mix,
        r.threads,
        r.isolation,
        r.throughput(),
        r.txn_conflicts(),
    );
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let sweep = sweep_from_env();
    if sweep.shards.is_empty() || sweep.threads.is_empty() || sweep.mixes.is_empty() {
        eprintln!(
            "[fig11] nothing to run: GM_SHARDS, GM_THREADS or GM_MIXES left no valid entries"
        );
        std::process::exit(2);
    }

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig11] dataset {} |V|={} |E|={}, {} engines × shards {:?} × threads {:?} × {:?}, \
         txn batch {} writes, snapshot mode {}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        sweep.env.engines.len(),
        sweep.shards,
        sweep.threads,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        sweep.txn_ops,
        sweep.mode.name(),
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    for kind in &sweep.env.engines {
        for mix in &sweep.mixes {
            for &t in &sweep.threads {
                let cfg = wl_config(*mix, t, &sweep);
                for &n in &sweep.shards {
                    // Autocommit baseline, then the same deterministic
                    // workload with transactional sessions.
                    let batches: &[u64] = match sweep.txn_ops {
                        0 => &[0],
                        _ => &[0, sweep.txn_ops],
                    };
                    for &txn_ops in batches {
                        let source: Box<dyn SnapshotSource> =
                            Box::new(kind.make_sharded_source(n as usize, sweep.mode));
                        let run = prepare(&source, &data, cfg.seed).and_then(|params| {
                            let backend = HostBackend::new(&source, &params, cfg.op_timeout)
                                .with_txn_ops(txn_ops);
                            run_backend(&backend, &data.name, &cfg)
                        });
                        match run {
                            Ok(r) => {
                                log_row(&r);
                                rows.push(r.scaling_row());
                            }
                            Err(e) => eprintln!(
                                "[fig11]   {} {} t={t} s={n} {} FAILED: {e}",
                                kind.name(),
                                mix.name(),
                                if txn_ops > 0 { "txn" } else { "autocommit" },
                            ),
                        }
                    }
                }
            }
        }
    }

    println!(
        "\n=== Figure 11 — transactional vs autocommit writes (dataset {}) ===",
        data.name
    );
    print!("{}", summary::render_scaling(&rows));
    println!("\n--- csv ---");
    print!("{}", summary::scaling_to_csv(&rows));

    gm_bench::finish_traces("fig11", &rows);
}
