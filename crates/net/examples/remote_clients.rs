//! Network-attached benchmarking in five minutes: spawn a loopback
//! `gm-server`, point the multi-client workload driver at it, and compare
//! against the same run in-process — the dispatch + serialization cost of
//! the wire shows up directly in the latency columns.
//!
//! ```sh
//! cargo run --release -p gm-net --example remote_clients
//! ```
//!
//! Against an already-running server (`cargo run -p gm-net --bin gm-server`)
//! set `GM_SERVER_ADDR=127.0.0.1:7687` and the example dials it instead.

use gm_net::{RemoteBackend, RemoteEngine, Server};
use graphmark::core::summary;
use graphmark::model::{GraphSnapshot, QueryCtx};
use graphmark::registry::EngineKind;
use graphmark::workload::{
    prepare, run_backend, HostBackend, MixKind, SharedEngine, WorkloadConfig,
};

fn main() {
    let data = graphmark::datasets::generate(
        graphmark::datasets::DatasetId::Yeast,
        graphmark::datasets::Scale::tiny(),
        42,
    );

    // 1. A server. Externally: `cargo run -p gm-net --bin gm-server`.
    //    Here: spawned on a loopback port inside this process.
    let kind = EngineKind::LinkedV2;
    let (addr, handle) = match std::env::var("GM_SERVER_ADDR") {
        Ok(addr) => (addr, None),
        Err(_) => {
            let server = Server::bind("127.0.0.1:0", Box::new(move || kind.make())).expect("bind");
            let handle = server.spawn().expect("spawn");
            (handle.addr().to_string(), Some(handle))
        }
    };
    println!("server: {addr}");

    // 2. The same workload, twice, through the one driver entry point: over
    //    an in-process locked engine, then through gm-net with one TCP
    //    connection per client. `RemoteBackend::setup` resets the server,
    //    ships the dataset and prepares parameters; `prepare` does the same
    //    for the in-process host.
    let cfg = WorkloadConfig {
        mix: MixKind::ReadHeavy,
        threads: 4,
        ops_per_worker: 500,
        seed: 7,
        ..WorkloadConfig::default()
    };
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, cfg.seed).expect("load");
    let local = run_backend(
        &HostBackend::new(&host, &params, cfg.op_timeout),
        &data.name,
        &cfg,
    )
    .expect("in-process run");
    let remote = RemoteBackend::setup(&addr, &data, &cfg)
        .and_then(|backend| run_backend(&backend, &data.name, &cfg))
        .expect("network-attached run");

    let mut rows = vec![local.scaling_row(), remote.scaling_row()];
    rows[1].engine.push_str("@net");
    println!(
        "\nsame mix, same seed, same engine — the difference is the wire:\n{}",
        summary::render_scaling(&rows)
    );

    // 3. RemoteEngine is a GraphDb: trait-level access over the socket.
    let engine = RemoteEngine::connect(&addr).expect("connect");
    let ctx = QueryCtx::unbounded();
    println!(
        "remote {}: |V| = {}, |E| = {} (asked over the wire)",
        engine.name(),
        engine.vertex_count(&ctx).expect("count"),
        engine.edge_count(&ctx).expect("count"),
    );

    if let Some(handle) = handle {
        handle.shutdown();
    }
}
