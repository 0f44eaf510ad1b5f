//! Criterion bench: the concurrent workload driver itself.
//!
//! Measures whole closed-loop runs at 1 and 4 workers on two engines, for
//! the read-heavy mix — the quick regression signal for lock overhead in
//! the driver hot path — and, below the driver, one copy-on-write epoch of
//! the linked engine on `frb-l`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_datasets::{self as datasets, DatasetId, Scale};
use gm_model::{GraphDb, GraphSnapshot, LoadOptions};
use gm_workload::{run, MixKind, WorkloadConfig};
use graphmark::engines::linked::LinkedGraph;
use graphmark::registry::EngineKind;

fn bench_driver(c: &mut Criterion) {
    let data = datasets::generate(DatasetId::Yeast, Scale::tiny(), 42);
    let mut group = c.benchmark_group("workload/read-heavy");
    for kind in [EngineKind::LinkedV1, EngineKind::Document] {
        for threads in [1u32, 4] {
            let cfg = WorkloadConfig {
                mix: MixKind::ReadHeavy,
                threads,
                ops_per_worker: 64,
                ..WorkloadConfig::default()
            };
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{}-t{threads}", kind.name())),
                &cfg,
                |b, cfg| {
                    let factory = move || kind.make();
                    b.iter(|| run(&factory, &data, cfg).expect("run"));
                },
            );
        }
    }
    group.finish();
}

/// One copy-on-write MVCC epoch on the linked engine, without the driver:
/// clone the loaded graph (what `CowCell` does on the first write after a
/// pin), add one edge to the clone, and drop the clone.
fn bench_linked_clone(c: &mut Criterion) {
    let data = datasets::generate(DatasetId::FrbL, Scale::small(), 42);
    let mut base = LinkedGraph::v2();
    base.bulk_load(&data, &LoadOptions::default())
        .expect("load");
    let (a, b) = (
        base.resolve_vertex(1).expect("vertex 1"),
        base.resolve_vertex(2).expect("vertex 2"),
    );
    // Intern the label once, as a steady-state workload has: an epoch that
    // meets a new label also copies the label interner.
    base.add_edge(a, b, "bench", &vec![]).expect("add_edge");
    let mut group = c.benchmark_group("mvcc/epoch");
    group.bench_function("linked_clone_then_add_edge", |bench| {
        bench.iter(|| {
            let mut epoch = base.clone();
            epoch.add_edge(a, b, "bench", &vec![]).expect("add_edge");
            epoch
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(1000))
        .sample_size(10);
    targets = bench_driver, bench_linked_clone
}
criterion_main!(benches);
