//! Figure 9 (beyond the paper): in-process vs **network-attached** latency.
//!
//! The paper evaluates every system in its real client/server deployment —
//! queries cross a driver/wire boundary before touching the store — whereas
//! the in-process harness hides dispatch and serialization cost entirely.
//! This binary makes that cost visible: for every engine and mix it sweeps
//! client counts twice, once in-process (the fig8 configuration) and once
//! through `gm-net` against a loopback `gm-server` (rows suffixed `@net`),
//! then adds one open-loop pair paced at the measured in-process capacity
//! with a bounded backlog, so the wire's latency penalty shows up at a
//! matched offered rate too. Everything reports through the same
//! `ScalingRow`/`render_scaling`/CSV pipeline as the other figures.
//!
//! Extra environment knobs on top of the `GM_*` set (registry in
//! `gm_bench::config`):
//!
//! * `GM_NET_CLIENTS` (default `1,2,4`) — client-connection counts;
//! * `GM_SERVER_ADDR` (default: spawn a loopback server per engine) — an
//!   external `gm-server` to benchmark against; the sweep then runs only
//!   that server's engine, and in-process rows use the matching local
//!   engine for the side-by-side comparison;
//! * `GM_MIXES`, `GM_WL_OPS`, `GM_MAX_LATENESS_MS` as in `fig8`.
//!
//! What the sweep shows is asserted elsewhere: remote runs matching the
//! in-process replay and server traces stitched under the client's id by
//! `crates/net/tests/loopback.rs`.

use std::time::Duration;

use gm_bench::{config, drive, Env};
use gm_core::summary::{self, ScalingRow};
use gm_datasets::{self as datasets, DatasetId};
use gm_net::{Connection, RemoteBackend, Server, ServerHandle};
use gm_workload::{
    format_nanos, run_backend, MixKind, Pacing, RunReport, SharedEngine, WorkloadConfig,
};
use graphmark::registry::EngineKind;

struct Sweep {
    env: Env,
    clients: Vec<u32>,
    mixes: Vec<MixKind>,
    ops_per_worker: u64,
    max_lateness: Duration,
    server_addr: Option<String>,
}

fn sweep_from_env() -> Sweep {
    let server_addr = std::env::var("GM_SERVER_ADDR").ok();
    Sweep {
        env: Env::from_env(),
        clients: config::var_list_u32("GM_NET_CLIENTS", "1,2,4"),
        mixes: config::var_mixes("GM_MIXES", "read-heavy,mixed"),
        ops_per_worker: config::var_u64("GM_WL_OPS", 400),
        max_lateness: config::var_millis("GM_MAX_LATENESS_MS", 50),
        server_addr,
    }
}

/// A loopback server owned by this run, or an external address.
enum ServerSlot {
    Spawned(ServerHandle),
    External(String),
}

impl ServerSlot {
    fn addr(&self) -> String {
        match self {
            ServerSlot::Spawned(handle) => handle.addr().to_string(),
            ServerSlot::External(addr) => addr.clone(),
        }
    }

    fn finish(self) {
        if let ServerSlot::Spawned(handle) = self {
            handle.shutdown();
        }
    }
}

fn main() {
    config::apply_obs_mode();
    config::apply_trace_mode();
    let sweep = sweep_from_env();
    if sweep.clients.is_empty() || sweep.mixes.is_empty() {
        eprintln!("[fig9] nothing to run: GM_NET_CLIENTS or GM_MIXES left no valid entries");
        std::process::exit(2);
    }

    // With an external server the hosted engine is fixed: sweep just that
    // engine so every network row has its in-process twin.
    let engines: Vec<EngineKind> = match &sweep.server_addr {
        None => sweep.env.engines.clone(),
        Some(addr) => match Connection::connect(addr) {
            Ok(conn) => match EngineKind::parse(conn.engine_name()) {
                Some(kind) => vec![kind],
                None => {
                    eprintln!(
                        "[fig9] server at {addr} hosts unknown engine {:?}",
                        conn.engine_name()
                    );
                    std::process::exit(2);
                }
            },
            Err(e) => {
                eprintln!("[fig9] cannot reach GM_SERVER_ADDR {addr}: {e}");
                std::process::exit(1);
            }
        },
    };

    let data = datasets::generate(DatasetId::Yeast, sweep.env.scale, sweep.env.seed);
    eprintln!(
        "[fig9] dataset {} |V|={} |E|={}, {} engines × {:?} clients × {:?}{}",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        engines.len(),
        sweep.clients,
        sweep.mixes.iter().map(|m| m.name()).collect::<Vec<_>>(),
        match &sweep.server_addr {
            Some(addr) => format!(" [server {addr}]"),
            None => " [loopback]".to_string(),
        },
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    let push = |report: RunReport, net: bool, rows: &mut Vec<ScalingRow>| -> f64 {
        let mut row = report.scaling_row();
        if net {
            row.engine.push_str("@net");
        }
        eprintln!(
            "[fig9]   {:<20} {:<11} c={:<2} {:>9.0} ops/s  p50 {:>9} p99 {:>9}{}",
            row.engine,
            row.mix,
            row.threads,
            row.throughput(),
            format_nanos(row.p50_nanos),
            format_nanos(row.p99_nanos),
            if row.shed > 0 {
                format!("  shed {}", row.shed)
            } else {
                String::new()
            },
        );
        let throughput = row.throughput();
        rows.push(row);
        throughput
    };

    for kind in &engines {
        let slot = match &sweep.server_addr {
            Some(addr) => ServerSlot::External(addr.clone()),
            None => {
                let kind = *kind;
                match Server::bind("127.0.0.1:0", Box::new(move || kind.make()))
                    .and_then(Server::spawn)
                {
                    Ok(handle) => ServerSlot::Spawned(handle),
                    Err(e) => {
                        eprintln!("[fig9] {}: cannot spawn loopback server: {e}", kind.name());
                        continue;
                    }
                }
            }
        };
        let addr = slot.addr();

        for mix in &sweep.mixes {
            let mut capacity = 0.0f64;
            let mut top_clients = 1;
            // Closed-loop client sweep: in-process vs network-attached.
            for &c in &sweep.clients {
                let cfg = WorkloadConfig {
                    mix: *mix,
                    threads: c,
                    ops_per_worker: sweep.ops_per_worker,
                    seed: sweep.env.seed,
                    op_timeout: sweep.env.timeout,
                    ..WorkloadConfig::default()
                };
                match drive(&SharedEngine::new(kind.make()), &data, &cfg) {
                    Ok(r) => {
                        capacity = capacity.max(push(r, false, &mut rows));
                        top_clients = top_clients.max(c);
                    }
                    Err(e) => {
                        eprintln!("[fig9]   {} {} c={c}: FAILED: {e}", kind.name(), mix.name());
                    }
                }
                match RemoteBackend::setup(&addr, &data, &cfg)
                    .and_then(|b| run_backend(&b, &data.name, &cfg))
                {
                    Ok(r) => {
                        push(r, true, &mut rows);
                    }
                    Err(e) => {
                        eprintln!(
                            "[fig9]   {}@net {} c={c}: FAILED: {e}",
                            kind.name(),
                            mix.name()
                        );
                    }
                }
            }

            // One open-loop pair at the measured in-process capacity, with a
            // bounded backlog: same offered rate, so the latency columns
            // isolate what the wire adds under matched load.
            if capacity <= 0.0 {
                continue;
            }
            let cfg = WorkloadConfig {
                mix: *mix,
                threads: top_clients,
                ops_per_worker: sweep.ops_per_worker,
                seed: sweep.env.seed,
                op_timeout: sweep.env.timeout,
                pacing: Pacing::open_bounded(capacity, sweep.max_lateness),
                ..WorkloadConfig::default()
            };
            match drive(&SharedEngine::new(kind.make()), &data, &cfg) {
                Ok(r) => {
                    push(r, false, &mut rows);
                }
                Err(e) => {
                    eprintln!("[fig9]   {} {} paced: FAILED: {e}", kind.name(), mix.name());
                }
            }
            match RemoteBackend::setup(&addr, &data, &cfg)
                .and_then(|b| run_backend(&b, &data.name, &cfg))
            {
                Ok(r) => {
                    push(r, true, &mut rows);
                }
                Err(e) => {
                    eprintln!(
                        "[fig9]   {}@net {} paced: FAILED: {e}",
                        kind.name(),
                        mix.name()
                    );
                }
            }
        }
        slot.finish();
    }

    println!(
        "\n=== Figure 9 — in-process vs network-attached (dataset {}) ===",
        data.name
    );
    println!("(rows suffixed @net ran through gm-net client connections)");
    print!("{}", summary::render_scaling(&rows));
    println!("\n--- csv ---");
    print!("{}", summary::scaling_to_csv(&rows));

    gm_bench::finish_traces("fig9", &rows);
}
