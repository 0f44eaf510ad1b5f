//! The beyond-the-paper sweeps as one table.
//!
//! The paper measures every query single-threaded and in process. The
//! sweeps drive the `gm-workload` driver's deterministic op streams through
//! the layers this reproduction adds, and render every run as one row of the
//! same scaling table, `core::report` run-duration matrix and CSV:
//!
//! * `fig8` — worker threads under the locked and the snapshot read path,
//!   then open loop at multiples of the measured capacity with a bounded
//!   backlog, so overloaded runs shed (counted, never executed) instead of
//!   queueing forever;
//! * `fig9` — in-process vs network-attached (`@net`) clients, plus one
//!   open-loop pair paced at the in-process capacity;
//! * `fig10` — one big lock vs per-shard locks vs per-shard MVCC cells vs a
//!   fleet of shard servers (`@fleet`), read through the lock-wait column;
//! * `fig11` — autocommit vs epoch-pinned write transactions, read through
//!   the `txn_conflicts` column.
//!
//! Each [`Sweep`] row declares its default axes and the [`Stack`]s it
//! drives as data; [`Sweep::run`] is the one loop over them, and
//! [`SweepKnobs`] overrides any axis. What the sweeps show is asserted by
//! tier-1 tests, not by the sweeps: shed accounting (`tests/concurrency.rs`),
//! locked and snapshot reads agreeing (`tests/snapshot_consistency.rs`),
//! sharded == unsharded (`tests/sharding.rs`), remote and fleet replays
//! (`crates/net/tests/{loopback,fleet,fleet_proc}.rs`), transaction replay
//! and conflicts (the gm-workload, gm-shard and gm-mvcc transaction tests),
//! exemplars resolving (`tests/trace_exemplars.rs`). What each layer costs
//! is `benchmark/`'s ledger.

use std::io::Write;

use gm_core::report::{Report, RunMode};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::DatasetId;
use gm_model::{Dataset, GdbError, GdbResult};
use gm_net::{Connection, Fleet, FleetBackend, RemoteBackend, Server, ServerHandle};
use gm_obs::{trace, RegistrySnapshot};
use gm_workload::{
    format_nanos, prepare, run_backend, Host, HostBackend, MixKind, Pacing, RunReport,
    SharedEngine, WorkloadConfig,
};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;

use crate::config::{self, SweepKnobs};
use crate::{banner, Env};

/// The dataset every sweep runs on.
pub const DATASET: DatasetId = DatasetId::Yeast;

/// One way to host the engine under test, named by the `isolation` label
/// its rows carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The engine behind one shared `RwLock` (`locked`).
    Locked,
    /// Reads pin copy-on-write MVCC epochs (`snapshot-cow`).
    Snapshot,
    /// A hash-partitioned composite, one lock per shard (`sharded-locked`,
    /// engine `<name>/sN`).
    Sharded,
    /// One MVCC cell per shard; reads pin composite epochs
    /// (`snapshot-sharded-cow`).
    ShardedSnapshot,
    /// [`Stack::ShardedSnapshot`] with each worker's writes buffered in
    /// epoch-pinned transactions of [`SweepKnobs::txn_ops`] writes
    /// (`snapshot-sharded-cow+txn`).
    ShardedTxn,
    /// The engine behind a `gm-server`, driven over the wire (`remote`,
    /// engine `<name>@net`).
    Net,
    /// A fleet of shard servers behind `gm-net`'s coordinator (`fleet`,
    /// engine `<name>/fN`).
    Fleet,
}

impl Stack {
    /// The shard counts this stack runs at: once for an unsharded stack
    /// (the count is unused), each of `shards` for a sharded one, each
    /// count ≥ 2 for a spawned fleet, and an attached fleet's own size.
    fn shard_counts(self, shards: &[u32], knobs: &SweepKnobs) -> Vec<u32> {
        match self {
            Stack::Locked | Stack::Snapshot | Stack::Net => vec![1],
            Stack::ShardedTxn if knobs.txn_ops == 0 => Vec::new(),
            Stack::Sharded | Stack::ShardedSnapshot | Stack::ShardedTxn => shards.to_vec(),
            Stack::Fleet if !knobs.fleet_addrs.is_empty() => vec![knobs.fleet_addrs.len() as u32],
            Stack::Fleet => shards.iter().copied().filter(|&n| n >= 2).collect(),
        }
    }

    /// Build this stack around `kind` (`shards` wide), load `data`, drive
    /// `cfg` and tear the stack down. Returns the run's report and the
    /// stack's note for the log line: the per-epoch copy amplification of
    /// an in-process run that published epochs, the wire counters of a
    /// fleet run, or nothing.
    fn run(
        self,
        kind: EngineKind,
        shards: u32,
        data: &Dataset,
        cfg: &WorkloadConfig,
        knobs: &SweepKnobs,
    ) -> GdbResult<(RunReport, String)> {
        let n = shards as usize;
        let before = gm_obs::global().snapshot();
        let report = match self {
            Stack::Locked => on_host(&SharedEngine::new(kind.make()), data, cfg, 0),
            Stack::Snapshot => on_host(&kind.make_snapshot_source(SnapshotMode::Cow), data, cfg, 0),
            Stack::Sharded => on_host(&kind.make_sharded(n), data, cfg, 0),
            Stack::ShardedSnapshot | Stack::ShardedTxn => {
                let source: Box<dyn SnapshotSource> = Box::new(kind.make_sharded_source(n));
                let txn_ops = if self == Stack::ShardedTxn {
                    knobs.txn_ops
                } else {
                    0
                };
                on_host(&source, data, cfg, txn_ops)
            }
            Stack::Net => return net(kind, data, cfg, knobs.server_addr.as_deref()),
            Stack::Fleet => return fleet(kind, n, data, cfg, &knobs.fleet_addrs),
        }?;
        Ok((
            report,
            copy_amplification(&before, &gm_obs::global().snapshot()),
        ))
    }
}

/// Load `data` into a fresh in-process `host`, resolve `cfg.seed`'s
/// parameters and drive `cfg` (`txn_ops` writes per transaction; 0 =
/// autocommit).
fn on_host(
    host: &dyn Host,
    data: &Dataset,
    cfg: &WorkloadConfig,
    txn_ops: u64,
) -> GdbResult<RunReport> {
    let params = prepare(host, data, cfg.seed)?;
    let backend = HostBackend::new(host, &params, cfg.op_timeout).with_txn_ops(txn_ops);
    run_backend(&backend, &data.name, cfg)
}

/// A loopback server hosting `kind`, spawned for one run.
fn spawn_server(kind: EngineKind, identity: Option<(u32, u32)>) -> GdbResult<ServerHandle> {
    let server = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))?;
    match identity {
        Some((shard, size)) => server.with_shard_identity(shard, size),
        None => server,
    }
    .spawn()
}

/// [`Stack::Net`]: drive the server at `addr`, or a loopback server
/// hosting `kind` spawned for this run.
fn net(
    kind: EngineKind,
    data: &Dataset,
    cfg: &WorkloadConfig,
    addr: Option<&str>,
) -> GdbResult<(RunReport, String)> {
    let (addr, spawned) = match addr {
        Some(addr) => (addr.to_string(), None),
        None => {
            let handle = spawn_server(kind, None)?;
            (handle.addr().to_string(), Some(handle))
        }
    };
    let run = RemoteBackend::setup(&addr, data, cfg).and_then(|b| run_backend(&b, &data.name, cfg));
    if let Some(handle) = spawned {
        handle.shutdown();
    }
    let mut report = run?;
    report.engine.push_str("@net");
    Ok((report, String::new()))
}

/// [`Stack::Fleet`]: drive the fleet at `addrs`, or `shards` loopback
/// shard servers hosting `kind` spawned for this run.
fn fleet(
    kind: EngineKind,
    shards: usize,
    data: &Dataset,
    cfg: &WorkloadConfig,
    addrs: &[String],
) -> GdbResult<(RunReport, String)> {
    let mut spawned: Vec<ServerHandle> = Vec::new();
    if addrs.is_empty() {
        for s in 0..shards as u32 {
            match spawn_server(kind, Some((s, shards as u32))) {
                Ok(handle) => spawned.push(handle),
                Err(e) => {
                    spawned.into_iter().for_each(ServerHandle::shutdown);
                    return Err(e);
                }
            }
        }
    }
    let addrs = if spawned.is_empty() {
        addrs.to_vec()
    } else {
        spawned.iter().map(|h| h.addr().to_string()).collect()
    };
    let run = Fleet::connect(addrs).and_then(|fleet| {
        let params = fleet.setup(data, cfg)?;
        let backend = FleetBackend::new(&fleet, &params, cfg.op_timeout);
        let report = run_backend(&backend, &data.name, cfg)?;
        let note = format!(
            "  {} wire frames, {} batched ops, {} routing errors",
            fleet.round_trips(),
            fleet.batched_ops(),
            fleet.routing_errors(),
        );
        Ok((report, note))
    });
    for handle in spawned {
        handle.shutdown();
    }
    run
}

/// What one in-process run copied on write, per published epoch: the
/// engine clone's duration next to the pages the storage layer then copied.
/// Empty when counters are off or the run published nothing (a locked host
/// never publishes).
fn copy_amplification(before: &RegistrySnapshot, after: &RegistrySnapshot) -> String {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let publishes = delta("mvcc.cow.publishes");
    if publishes == 0 {
        return String::new();
    }
    let clone_nanos = |s: &RegistrySnapshot| s.hist("mvcc.cow.clone_nanos").map_or(0, |h| h.sum);
    format!(
        "  per epoch: clone {}, {:.1} pages / {:.1} KiB copied",
        format_nanos((clone_nanos(after) - clone_nanos(before)) / publishes),
        delta("storage.cow.pages_copied") as f64 / publishes as f64,
        delta("storage.cow.bytes_copied") as f64 / publishes as f64 / 1024.0,
    )
}

/// A sweep's open-loop tail: for each engine and mix, at the top thread
/// count, each of `stacks` paced at each of `factors` × the best
/// closed-loop [`Stack::Locked`] throughput, with a bounded backlog.
pub struct OpenLoop {
    /// Offered rates as multiples of the measured capacity.
    pub factors: &'static [f64],
    /// The stacks driven open loop.
    pub stacks: &'static [Stack],
}

/// One sweep: its name on the `reproduce` command line, its title, and
/// its default axes and stacks as data.
pub struct Sweep {
    /// Name on the `reproduce` command line.
    pub name: &'static str,
    /// Heading printed above the output.
    pub title: &'static str,
    /// Workload mixes.
    pub mixes: &'static [MixKind],
    /// Worker-thread (client-connection) counts.
    pub threads: &'static [u32],
    /// Shard counts of the sharded stacks.
    pub shards: &'static [u32],
    /// The stacks driven closed loop at every (mix, threads) point.
    pub stacks: &'static [Stack],
    /// The open-loop tail, if any.
    pub open_loop: Option<OpenLoop>,
}

const READ_HEAVY: &[MixKind] = &[MixKind::ReadHeavy, MixKind::Mixed];
const WRITE_HEAVY: &[MixKind] = &[MixKind::WriteHeavy, MixKind::Mixed];

/// Every sweep, in the order `reproduce all` runs them.
pub static SWEEPS: &[Sweep] = &[
    Sweep {
        name: "fig8",
        title: "Figure 8 — concurrency scalability",
        mixes: READ_HEAVY,
        threads: &[1, 2, 4, 8],
        shards: &[],
        stacks: &[Stack::Locked, Stack::Snapshot],
        open_loop: Some(OpenLoop {
            factors: &[0.5, 1.0, 2.0, 4.0],
            stacks: &[Stack::Locked],
        }),
    },
    Sweep {
        name: "fig9",
        title: "Figure 9 — in-process vs network-attached",
        mixes: READ_HEAVY,
        threads: &[1, 2, 4],
        shards: &[],
        stacks: &[Stack::Locked, Stack::Net],
        open_loop: Some(OpenLoop {
            factors: &[1.0],
            stacks: &[Stack::Locked, Stack::Net],
        }),
    },
    Sweep {
        name: "fig10",
        title: "Figure 10 — sharded locks vs one big lock",
        mixes: WRITE_HEAVY,
        threads: &[2, 4],
        shards: &[1, 2, 4],
        stacks: &[
            Stack::Locked,
            Stack::Sharded,
            Stack::ShardedSnapshot,
            Stack::Fleet,
        ],
        open_loop: None,
    },
    Sweep {
        name: "fig11",
        title: "Figure 11 — transactional vs autocommit writes",
        mixes: WRITE_HEAVY,
        threads: &[2, 4],
        shards: &[1, 4],
        stacks: &[Stack::ShardedSnapshot, Stack::ShardedTxn],
        open_loop: None,
    },
];

/// Look a sweep up by name.
pub fn find(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.name == name)
}

impl Sweep {
    /// Run this sweep over `env`'s engines on `data`, with `knobs`
    /// overriding its axes. Each run logs one line to `log`; returns what
    /// the sweep prints: the scaling table, the run-duration matrix and
    /// the CSV.
    pub fn run(
        &self,
        env: &Env,
        knobs: &SweepKnobs,
        data: &Dataset,
        log: &mut dyn Write,
    ) -> String {
        let tag = self.name;
        let mixes = knobs.mixes.as_deref().unwrap_or(self.mixes);
        let threads = knobs.threads.as_deref().unwrap_or(self.threads);
        let shards = knobs.shards.as_deref().unwrap_or(self.shards);
        let engines = self.engines(env, knobs, log);
        let _ = writeln!(
            log,
            "[{tag}] dataset {} |V|={} |E|={}, engines {:?} × mixes {:?} × threads {threads:?} \
             × shards {shards:?}",
            data.name,
            data.vertex_count(),
            data.edge_count(),
            engines.iter().map(|k| k.name()).collect::<Vec<_>>(),
            mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        );

        let mut rows: Vec<ScalingRow> = Vec::new();
        let mut report = Report::default();
        // Drive one run, log it and keep its row; its throughput (0 when
        // it failed).
        let mut drive = |stack: Stack, kind: EngineKind, n: u32, cfg: &WorkloadConfig| -> f64 {
            match stack.run(kind, n, data, cfg, knobs) {
                Ok((r, note)) => {
                    let row = r.scaling_row();
                    let _ = writeln!(
                        log,
                        "[{tag}]   {:<20} {:<11} t={:<2} {:<24} {:>9.0} ops/s  p99 {:>8}  \
                             lockw/op {:>8}  conflicts {}{}{}{note}",
                        row.engine,
                        row.mix,
                        row.threads,
                        row.isolation,
                        row.throughput(),
                        format_nanos(row.p99_nanos),
                        format_nanos(row.lock_wait_per_op()),
                        row.txn_conflicts,
                        match row.offered_ops_per_sec {
                            Some(rate) => format!("  open {rate:.0}/s offered"),
                            None => String::new(),
                        },
                        match row.shed {
                            0 => String::new(),
                            shed => format!("  shed {shed} ({:.1}%)", row.shed_fraction() * 100.0),
                        },
                    );
                    report.push(r.to_measurement());
                    let throughput = row.throughput();
                    rows.push(row);
                    throughput
                }
                Err(e) => {
                    let _ = writeln!(
                        log,
                        "[{tag}]   {} {} t={} {stack:?} s={n}: FAILED: {e}",
                        kind.name(),
                        cfg.mix.name(),
                        cfg.threads,
                    );
                    0.0
                }
            }
        };
        for &kind in &engines {
            for &mix in mixes {
                let cfg = |threads| WorkloadConfig {
                    mix,
                    threads,
                    ops_per_worker: knobs.ops_per_worker,
                    seed: env.seed,
                    op_timeout: env.timeout,
                    ..WorkloadConfig::default()
                };
                let mut capacity = 0.0f64;
                for &t in threads {
                    for &stack in self.stacks {
                        for n in stack.shard_counts(shards, knobs) {
                            let throughput = drive(stack, kind, n, &cfg(t));
                            if stack == Stack::Locked {
                                capacity = capacity.max(throughput);
                            }
                        }
                    }
                }
                let (Some(open), Some(&top)) = (&self.open_loop, threads.iter().max()) else {
                    continue;
                };
                if capacity <= 0.0 {
                    continue;
                }
                let factors = knobs.overload_factors.as_deref().unwrap_or(open.factors);
                for &factor in factors {
                    for &stack in open.stacks {
                        let cfg = WorkloadConfig {
                            pacing: Pacing::open_bounded(capacity * factor, knobs.max_lateness),
                            ..cfg(top)
                        };
                        for n in stack.shard_counts(shards, knobs) {
                            drive(stack, kind, n, &cfg);
                        }
                    }
                }
            }
        }

        let title = format!("{} (dataset {})", self.title, data.name);
        let mut out = banner(self.name, &title);
        out.push_str(&summary::render_scaling(&rows));
        out.push_str("\n--- run durations via core::report ---\n");
        out.push_str(&report.render_matrix(RunMode::Batch));
        out.push_str("\n--- csv ---\n");
        out.push_str(&summary::scaling_to_csv(&rows));
        finish_traces(tag, &rows, log);
        out
    }

    /// The engines to sweep: `env`'s, or — when a remote stack of this
    /// sweep attaches to a running server or fleet — only the engine it
    /// hosts, so every remote row has its in-process twin. The twin is the
    /// hosted name before any `/`: a server hosting `linked(v2)/s2` is
    /// compared with `linked(v2)`.
    fn engines(&self, env: &Env, knobs: &SweepKnobs, log: &mut dyn Write) -> Vec<EngineKind> {
        let hosted = match (&knobs.server_addr, knobs.fleet_addrs.is_empty()) {
            (Some(addr), _) if self.stacks.contains(&Stack::Net) => {
                Connection::connect(addr).map(|c| c.engine_name().to_string())
            }
            (_, false) if self.stacks.contains(&Stack::Fleet) => {
                Fleet::connect(knobs.fleet_addrs.clone()).map(|f| f.name().to_string())
            }
            _ => return env.engines.clone(),
        };
        let twin = hosted.and_then(|name| {
            EngineKind::parse(name.split('/').next().unwrap_or_default()).ok_or_else(|| {
                GdbError::Invalid(format!("the server hosts unknown engine {name:?}"))
            })
        });
        twin.map(|kind| vec![kind]).unwrap_or_else(|e| {
            let _ = writeln!(log, "[{}] FAILED: {e}", self.name);
            Vec::new()
        })
    }
}

/// Close a sweep's tracing: report how many of its rows' `p99_exemplar`
/// ids resolve in the flight recorder, and dump the recorder to
/// `GM_TRACE_DUMP` when that is set.
fn finish_traces(tag: &str, rows: &[ScalingRow], log: &mut dyn Write) {
    let ring = trace::global_ring();
    if trace::enabled() {
        let stamped = rows.iter().filter(|r| r.p99_exemplar != 0).count();
        let resolved = rows
            .iter()
            .filter(|r| r.p99_exemplar != 0 && ring.find(r.p99_exemplar).is_some())
            .count();
        let _ = writeln!(
            log,
            "[{tag}] trace: {resolved}/{stamped} p99 exemplars resolve in the flight recorder"
        );
    }
    if let Some(base) = config::trace_dump_path() {
        let _ = match trace::dump_to(&base, &ring.snapshot()) {
            Ok(()) => writeln!(log, "[{tag}] traces dumped to {base}.txt and {base}.json"),
            Err(e) => writeln!(log, "[{tag}] GM_TRACE_DUMP to {base} failed: {e}"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    use gm_datasets::Scale;
    use gm_workload::Host;

    /// The scaling CSV's header, byte for byte.
    const CSV_HEADER: &str = "engine,mix,isolation,threads,ops,read_ops,errors,shed,epoch_skew,\
        lock_wait_ms,wall_millis,offered_ops_s,throughput_ops_s,read_ops_s,p50_us,p95_us,p99_us,\
        max_us,engine_exec_ms,snapshot_pin_ms,clone_publish_ms,wire_encode_ms,wire_io_ms,\
        p99_exemplar,txn_conflicts";

    fn tiny() -> (Env, Dataset) {
        let env = Env {
            scale: Scale::tiny(),
            seed: 42,
            timeout: Duration::from_secs(5),
            batch: 10,
            engines: vec![EngineKind::LinkedV2],
        };
        let data = gm_datasets::generate(DATASET, env.scale, env.seed);
        (env, data)
    }

    fn tiny_knobs() -> SweepKnobs {
        SweepKnobs {
            threads: Some(vec![1, 2]),
            shards: Some(vec![1, 2]),
            overload_factors: Some(vec![1.0]),
            ops_per_worker: 20,
            ..SweepKnobs::default()
        }
    }

    /// Run `sweep`; its printed output, its log, and its CSV rows as
    /// (engine, isolation, errors).
    fn run(
        sweep: &Sweep,
        env: &Env,
        knobs: &SweepKnobs,
        data: &Dataset,
    ) -> (String, String, Vec<(String, String, u64)>) {
        let mut log = Vec::new();
        let out = sweep.run(env, knobs, data, &mut log);
        let log = String::from_utf8(log).unwrap();
        let csv = out.split("\n--- csv ---\n").nth(1).expect("csv section");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER), "{}: csv header", sweep.name);
        let rows = lines
            .map(|line| {
                let cells: Vec<&str> = line.split(',').collect();
                (cells[0].into(), cells[2].into(), cells[6].parse().unwrap())
            })
            .collect();
        (out, log, rows)
    }

    #[test]
    fn every_sweep_runs_at_tiny_scale() {
        let (env, data) = tiny();
        let owned: &[(&str, &[(&str, &str)])] = &[
            ("fig8", &[("locked", ""), ("snapshot-cow", "")]),
            ("fig9", &[("locked", ""), ("remote", "@net")]),
            (
                "fig10",
                &[
                    ("locked", ""),
                    ("sharded-locked", "/s2"),
                    ("snapshot-sharded-cow", "/s2"),
                    ("fleet", "/f2"),
                ],
            ),
            (
                "fig11",
                &[
                    ("snapshot-sharded-cow", "/s2"),
                    ("snapshot-sharded-cow+txn", "/s2"),
                ],
            ),
        ];
        assert_eq!(SWEEPS.len(), owned.len());
        for (sweep, (name, labels)) in SWEEPS.iter().zip(owned) {
            assert_eq!(sweep.name, *name);
            let (out, log, rows) = run(sweep, &env, &tiny_knobs(), &data);
            assert!(out.contains(sweep.title), "{name}: title missing:\n{out}");
            assert!(!log.contains("FAILED"), "{name}:\n{log}");
            assert!(!rows.is_empty(), "{name}: no rows");
            for (engine, isolation, errors) in &rows {
                assert_eq!(*errors, 0, "{name}: {engine}@{isolation} errored");
            }
            for (isolation, suffix) in *labels {
                assert!(
                    rows.iter()
                        .any(|(e, i, _)| i == isolation && e.ends_with(suffix)),
                    "{name}: no {isolation} row on an engine ending in {suffix:?}"
                );
            }
        }
    }

    #[test]
    fn net_rows_attach_to_a_sharded_server_through_its_twin() {
        let (env, data) = tiny();
        let host: gm_net::HostFactory =
            Box::new(|| Box::new(EngineKind::LinkedV2.make_sharded(2)) as Box<dyn Host>);
        let server = Server::bind_host("127.0.0.1:0", host)
            .and_then(Server::spawn)
            .unwrap();
        let knobs = SweepKnobs {
            server_addr: Some(server.addr().to_string()),
            threads: Some(vec![1]),
            ..tiny_knobs()
        };
        // The hosted engine, not the engine filter, picks the twin.
        let env = Env {
            engines: vec![EngineKind::Triple],
            ..env
        };
        let (_, log, rows) = run(find("fig9").unwrap(), &env, &knobs, &data);
        server.shutdown();
        assert!(!log.contains("FAILED"), "{log}");
        for (engine, isolation) in [("linked(v2)", "locked"), ("linked(v2)/s2@net", "remote")] {
            assert!(
                rows.iter().any(|(e, i, _)| e == engine && i == isolation),
                "no {engine}@{isolation} row: {rows:?}"
            );
        }
        assert!(rows.iter().all(|(_, _, errors)| *errors == 0), "{rows:?}");
    }
}
