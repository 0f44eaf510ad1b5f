//! Sharded-vs-unsharded equivalence suite.
//!
//! The contract of `gm-shard`: a `ShardedGraph<E>` (or sharded snapshot
//! source) answers **every** query exactly like the unsharded engine `E` —
//! partitioning may only change *where* data lives and *what* runs in
//! parallel, never an answer. Checked for every engine variant and shard
//! counts {1, 2, 4}, under locked and snapshot isolation:
//!
//! 1. concurrent read-only driver runs match the unsharded sequential
//!    replay op for op;
//! 2. the full Table-2 query suite — reads, traversals, BFS, shortest
//!    paths, *and mutations* — produces identical cardinalities in order;
//! 3. the user-contributed Gremlin-style query scripts agree;
//! 4. traversal results agree at the canonical-id level (not just counts),
//!    so cross-shard hops land on the *same* vertices;
//! 5. the sequential `Runner` accepts a sharded composite unchanged.

use std::collections::BTreeSet;

use graphmark::core::catalog::{self, QueryInstance};
use graphmark::core::params::Workload;
use graphmark::core::report::{Outcome, RunMode};
use graphmark::core::runner::{BenchConfig, Runner};
use graphmark::model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{testkit, QueryCtx};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::shard::ShardedGraph;
use graphmark::traversal::parser;
use graphmark::workload::{
    prepare, run_backend, run_backend_sequential, HostBackend, MixKind, SharedEngine,
    WorkloadConfig, WORKLOAD_SLOTS,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn cfg(mix: MixKind, threads: u32, ops: u64) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker: ops,
        seed: 77,
        record_cardinalities: true,
        ..WorkloadConfig::default()
    }
}

/// 1. The concurrent sharded driver (per-shard locks) reproduces the
///    unsharded sequential replay on a read-only mix — for every engine
///    variant and shard count.
#[test]
fn sharded_read_only_matches_unsharded_sequential_on_every_engine() {
    let data = testkit::chain_dataset(150);
    for kind in EngineKind::ALL {
        let c = cfg(MixKind::ReadOnly, 3, 20);
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let unsharded = run_backend_sequential(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: unsharded replay failed: {e}", kind.name()));
        for shards in SHARD_COUNTS {
            let graph = kind.make_sharded(shards);
            let params = prepare(&graph, &data, c.seed).unwrap();
            let backend = HostBackend::new(&graph, &params, c.op_timeout);
            let sharded = run_backend(&backend, &data.name, &c)
                .unwrap_or_else(|e| panic!("{}/s{shards}: sharded run failed: {e}", kind.name()));
            assert_eq!(
                sharded.cardinality_trace(),
                unsharded.cardinality_trace(),
                "{}/s{shards}: sharded reads must equal the unsharded replay",
                kind.name()
            );
            assert_eq!(sharded.errors(), 0, "{}/s{shards}", kind.name());
            assert_eq!(sharded.isolation, "sharded-locked");
            assert!(
                sharded.engine.ends_with(&format!("/s{shards}")),
                "engine label carries the shard count: {}",
                sharded.engine
            );
        }
    }
}

/// 1b. Snapshot-mode sharding (one MVCC cell per shard, composite epochs)
///    reproduces the same answers — for every engine at 2 shards, and across
///    all shard counts for one engine.
#[test]
fn sharded_snapshot_reads_match_unsharded_on_every_engine() {
    let data = testkit::chain_dataset(150);
    let c = cfg(MixKind::ReadOnly, 3, 15);
    for kind in EngineKind::ALL {
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let unsharded = run_backend_sequential(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: unsharded replay failed: {e}", kind.name()));
        let source: Box<dyn SnapshotSource> =
            Box::new(kind.make_sharded_source(2, SnapshotMode::Cow));
        let params = prepare(&source, &data, c.seed).unwrap();
        let backend = HostBackend::new(&source, &params, c.op_timeout);
        let snap = run_backend(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}/s2 snapshot run failed: {e}", kind.name()));
        assert_eq!(
            snap.cardinality_trace(),
            unsharded.cardinality_trace(),
            "{}/s2: snapshot-sharded reads must equal the unsharded replay",
            kind.name()
        );
        assert_eq!(
            snap.epoch_skew(),
            0,
            "{}: composite epochs never skew",
            kind.name()
        );
        assert_eq!(snap.errors(), 0, "{}", kind.name());
    }
    // All shard counts on one engine, concurrent and sequential snapshot
    // paths both.
    let kind = EngineKind::LinkedV2;
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, c.seed).unwrap();
    let backend = HostBackend::new(&host, &params, c.op_timeout);
    let unsharded = run_backend_sequential(&backend, &data.name, &c).unwrap();
    for shards in SHARD_COUNTS {
        let source: Box<dyn SnapshotSource> =
            Box::new(kind.make_sharded_source(shards, SnapshotMode::Cow));
        let params = prepare(&source, &data, c.seed).unwrap();
        let backend = HostBackend::new(&source, &params, c.op_timeout);
        let strict = HostBackend::new(&source, &params, c.op_timeout)
            .with_pin_staleness(std::time::Duration::ZERO);
        for report in [
            run_backend(&backend, &data.name, &c).unwrap(),
            run_backend_sequential(&strict, &data.name, &c).unwrap(),
        ] {
            assert_eq!(
                report.cardinality_trace(),
                unsharded.cardinality_trace(),
                "linked(v2)/s{shards}: {} trace",
                report.isolation
            );
        }
    }
}

/// 2. The full Table-2 suite — including the mutating queries — produces
///    identical cardinalities in execution order, and leaves both graphs in
///    agreeing end states.
#[test]
fn full_query_suite_agrees_op_for_op_on_every_engine() {
    let data = testkit::chain_dataset(120);
    let workload = Workload::choose(&data, 13, WORKLOAD_SLOTS);
    let ctx = QueryCtx::unbounded();
    for kind in EngineKind::ALL {
        // Reference: the unsharded engine runs the whole suite once.
        let mut reference = kind.make();
        reference.bulk_load(&data, &LoadOptions::default()).unwrap();
        let ref_params = workload.resolve(reference.as_ref()).unwrap();
        let suite = QueryInstance::full_suite(ref_params.k);
        let mut expected = Vec::with_capacity(suite.len());
        for inst in &suite {
            expected.push(
                catalog::execute(inst, reference.as_mut(), &ref_params, 0, &ctx)
                    .map_err(|e| e.to_string()),
            );
        }
        for shards in SHARD_COUNTS {
            let mut sharded = ShardedGraph::from_factory(shards, || kind.make());
            sharded.bulk_load(&data, &LoadOptions::default()).unwrap();
            let params = workload.resolve(&sharded).unwrap();
            for (inst, want) in suite.iter().zip(&expected) {
                let got = catalog::execute(inst, &mut sharded, &params, 0, &ctx)
                    .map_err(|e| e.to_string());
                // Error *messages* carry engine-internal ids, so compare
                // outcome shape + cardinality, not message text.
                match (&got, want) {
                    (Ok(g), Ok(w)) => assert_eq!(
                        g,
                        w,
                        "{}/s{shards}: {} cardinality diverged",
                        kind.name(),
                        inst.name()
                    ),
                    (Err(_), Err(_)) => {}
                    _ => panic!(
                        "{}/s{shards}: {} outcome diverged (sharded {got:?}, unsharded {want:?})",
                        kind.name(),
                        inst.name()
                    ),
                }
            }
            // End states agree on the whole-graph aggregates.
            assert_eq!(
                sharded.vertex_count(&ctx).unwrap(),
                reference.vertex_count(&ctx).unwrap(),
                "{}/s{shards}: end-state vertex count",
                kind.name()
            );
            assert_eq!(
                sharded.edge_count(&ctx).unwrap(),
                reference.edge_count(&ctx).unwrap(),
                "{}/s{shards}: end-state edge count",
                kind.name()
            );
            assert_eq!(
                sharded.edge_label_set(&ctx).unwrap().len(),
                reference.edge_label_set(&ctx).unwrap().len(),
                "{}/s{shards}: end-state label set",
                kind.name()
            );
        }
    }
}

/// 3. The "user-contributed" Gremlin-style scripts (suite extensibility, §5)
///    agree between sharded and unsharded deployments of every engine.
#[test]
fn query_scripts_agree_sharded_vs_unsharded() {
    let data = graphmark::datasets::generate(
        graphmark::datasets::DatasetId::Ldbc,
        graphmark::datasets::Scale::tiny(),
        99,
    );
    let scripts = [
        "g.V().count()",
        "g.E().label().dedup().count()",
        "g.V().hasLabel('person').count()",
        "g.V().hasLabel('person').out('knows').dedup().count()",
        "g.E().hasLabel('likes').count()",
    ];
    let ctx = QueryCtx::unbounded();
    for kind in [
        EngineKind::LinkedV2,
        EngineKind::Relational,
        EngineKind::Triple,
    ] {
        let mut reference = kind.make();
        reference.bulk_load(&data, &LoadOptions::default()).unwrap();
        for shards in [2usize, 4] {
            let mut sharded = ShardedGraph::from_factory(shards, || kind.make());
            sharded.bulk_load(&data, &LoadOptions::default()).unwrap();
            for script in scripts {
                let traversal = parser::parse(script).unwrap();
                let want = traversal.run_count(reference.as_ref(), &ctx).unwrap();
                let got = traversal
                    .run_count(&sharded, &ctx)
                    .unwrap_or_else(|e| panic!("{}/s{shards} `{script}`: {e}", kind.name()));
                assert_eq!(
                    got,
                    want,
                    "{}/s{shards} disagrees on `{script}`",
                    kind.name()
                );
            }
        }
    }
}

/// 4. Canonical-level traversal equivalence: cross-shard hops land on the
///    *same vertices*, not just the same counts. Composite and unsharded ids
///    differ, so results are mapped back to canonical ids through the resolve
///    tables before comparison.
#[test]
fn traversals_agree_at_canonical_level_across_shards() {
    let data = testkit::chain_dataset(80);
    let kind = EngineKind::LinkedV2;
    let ctx = QueryCtx::unbounded();

    // canonical → internal maps for both deployments, inverted for lookup.
    let canonicalize = |db: &dyn GraphSnapshot| -> std::collections::HashMap<u64, u64> {
        (0..80u64)
            .map(|c| (db.resolve_vertex(c).expect("resolves").0, c))
            .collect()
    };

    let mut reference = kind.make();
    reference.bulk_load(&data, &LoadOptions::default()).unwrap();
    let ref_inv = canonicalize(reference.as_ref());

    for shards in SHARD_COUNTS {
        let mut sharded = ShardedGraph::from_factory(shards, || kind.make());
        sharded.bulk_load(&data, &LoadOptions::default()).unwrap();
        let sh_inv = canonicalize(&sharded);

        for canonical in (0..80u64).step_by(7) {
            let rv = reference.resolve_vertex(canonical).unwrap();
            let sv = sharded.resolve_vertex(canonical).unwrap();
            for dir in Direction::ALL {
                let want: BTreeSet<u64> = reference
                    .neighbors(rv, dir, None, &ctx)
                    .unwrap()
                    .into_iter()
                    .map(|v| ref_inv[&v.0])
                    .collect();
                let got: BTreeSet<u64> = sharded
                    .neighbors(sv, dir, None, &ctx)
                    .unwrap()
                    .into_iter()
                    .map(|v| sh_inv[&v.0])
                    .collect();
                assert_eq!(
                    got, want,
                    "s{shards}: neighbors({canonical}, {dir:?}) canonical sets"
                );
            }
            // BFS frontier from this anchor, depth 3, canonical sets.
            let want: BTreeSet<u64> =
                graphmark::traversal::algo::bfs(reference.as_ref(), rv, 3, None, &ctx)
                    .unwrap()
                    .into_iter()
                    .map(|v| ref_inv[&v.0])
                    .collect();
            let got: BTreeSet<u64> = graphmark::traversal::algo::bfs(&sharded, sv, 3, None, &ctx)
                .unwrap()
                .into_iter()
                .map(|v| sh_inv[&v.0])
                .collect();
            assert_eq!(got, want, "s{shards}: bfs({canonical}, d=3) canonical sets");
        }
    }
}

/// 5. The sequential `Runner` accepts a sharded composite unchanged (the
///    "drops into the harness" half of the tentpole).
#[test]
fn runner_accepts_sharded_composite() {
    let data = testkit::chain_dataset(100);
    let kind = EngineKind::Cluster;
    let workload = Workload::choose(&data, 5, 16);

    let sharded_factory =
        move || -> Box<dyn GraphDb> { Box::new(ShardedGraph::from_factory(3, || kind.make())) };
    let mut sharded_runner =
        Runner::new(&sharded_factory, &data, &workload, BenchConfig::default());
    assert_eq!(sharded_runner.engine_name(), "cluster/s3");

    let plain_factory = move || kind.make();
    let mut plain_runner = Runner::new(&plain_factory, &data, &workload, BenchConfig::default());

    for id in [
        graphmark::core::catalog::QueryId::Q8,
        graphmark::core::catalog::QueryId::Q9,
        graphmark::core::catalog::QueryId::Q22,
        graphmark::core::catalog::QueryId::Q28,
        graphmark::core::catalog::QueryId::Q32,
        graphmark::core::catalog::QueryId::Q34,
    ] {
        let inst = QueryInstance::plain(id);
        let sharded = sharded_runner.run_instance(&inst, RunMode::Isolation);
        let plain = plain_runner.run_instance(&inst, RunMode::Isolation);
        assert_eq!(sharded.outcome, Outcome::Completed, "{id:?}");
        assert_eq!(
            sharded.cardinality, plain.cardinality,
            "{id:?}: sharded Runner answer must equal unsharded"
        );
    }
}
