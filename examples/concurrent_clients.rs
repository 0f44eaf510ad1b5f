//! Quickstart for the concurrent workload driver: four clients hammer one
//! engine with a mixed read/write workload, then the latency histogram and
//! scalability row are printed.
//!
//! ```sh
//! cargo run --example concurrent_clients
//! ```
//!
//! Everything here runs **in-process**. For the same driver pointed at a
//! socket server — measuring network-attached latency like the paper's
//! client/server deployments — see `crates/net/examples/remote_clients.rs`
//! (`cargo run -p gm-net --example remote_clients`).

use graphmark::core::summary;
use graphmark::registry::EngineKind;
use graphmark::workload::{
    prepare, run_backend, HostBackend, MixKind, Pacing, SharedEngine, WorkloadConfig,
};

fn main() {
    // 1. A synthetic social-ish dataset (the generators in `gm-datasets`
    //    produce the paper's shapes; any Dataset works).
    let data = graphmark::datasets::generate(
        graphmark::datasets::DatasetId::Yeast,
        graphmark::datasets::Scale::tiny(),
        42,
    );
    println!(
        "dataset {}: |V|={} |E|={}\n",
        data.name,
        data.vertex_count(),
        data.edge_count()
    );

    // 2. Four closed-loop clients, mixed reads+writes, deterministic seed.
    let cfg = WorkloadConfig {
        mix: MixKind::Mixed,
        threads: 4,
        ops_per_worker: 500,
        seed: 7,
        ..WorkloadConfig::default()
    };
    // The host says how the clients share the graph: here one engine behind
    // an `RwLock`; a snapshot source or a sharded composite drops in the
    // same way. `prepare` loads it and resolves the workload parameters
    // outside the measured region.
    let host = SharedEngine::new(EngineKind::LinkedV2.make());
    let params = prepare(&host, &data, cfg.seed).expect("load");
    let backend = HostBackend::new(&host, &params, cfg.op_timeout);
    let report = run_backend(&backend, &data.name, &cfg).expect("workload run");

    println!(
        "{} × {} workers × {} ops ({}): {:.0} ops/s, {} errors",
        report.engine,
        report.threads,
        cfg.ops_per_worker,
        report.mix,
        report.throughput(),
        report.errors()
    );
    println!(
        "\nlatency histogram (log2 buckets):\n{}",
        report.hist.render()
    );

    // 3. The same run shape at 1 thread, for a speedup row.
    let base_cfg = WorkloadConfig {
        threads: 1,
        ..cfg.clone()
    };
    let base = run_backend(&backend, &data.name, &base_cfg).expect("baseline run");
    let rows = vec![base.scaling_row(), report.scaling_row()];
    println!("{}", summary::render_scaling(&rows));

    // 4. Open-loop flavor: fixed arrival rate, latency includes queueing.
    let open = run_backend(
        &backend,
        &data.name,
        &WorkloadConfig {
            mix: MixKind::ReadHeavy,
            threads: 2,
            ops_per_worker: 200,
            pacing: Pacing::open(5_000.0),
            ..WorkloadConfig::default()
        },
    )
    .expect("open-loop run");
    println!(
        "open-loop @5000/s: p50 {} p99 {} (queueing included)",
        graphmark::workload::format_nanos(open.hist.p50()),
        graphmark::workload::format_nanos(open.hist.p99())
    );

    // 5. Overload: offer 8× the engine's measured closed-loop capacity with
    //    a bounded arrival backlog. Arrivals that slip more than 5 ms behind
    //    schedule are shed (counted, never executed), so the run terminates
    //    in bounded time and the gap between offered and achieved rate —
    //    plus the shed count — makes the overload visible instead of letting
    //    the backlog grow without bound.
    let offered = report.throughput() * 8.0;
    let overloaded = run_backend(
        &backend,
        &data.name,
        &WorkloadConfig {
            mix: MixKind::Mixed,
            threads: 4,
            ops_per_worker: 2_000,
            pacing: Pacing::open_bounded(offered, std::time::Duration::from_millis(5)),
            ..WorkloadConfig::default()
        },
    )
    .expect("overloaded run");
    println!(
        "\noverloaded open-loop: offered {:.0} ops/s, achieved {:.0} ops/s, \
         shed {} of {} arrivals ({:.1}%), p99 {} (queueing up to the bound)",
        offered,
        overloaded.throughput(),
        overloaded.shed(),
        overloaded.ops() + overloaded.errors() + overloaded.shed(),
        overloaded.scaling_row().shed_fraction() * 100.0,
        graphmark::workload::format_nanos(overloaded.hist.p99()),
    );
    println!("{}", summary::render_scaling(&[overloaded.scaling_row()]));
}
