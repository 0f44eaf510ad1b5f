//! Cross-engine tests for the concurrent workload driver (`gm-workload`).
//!
//! Three guarantees, checked on **every** engine variant:
//!
//! 1. a mixed read/write multi-client run completes without panics or op
//!    errors;
//! 2. the merged latency histogram is consistent: bucket counts sum to the
//!    op count, cumulative counts are monotone, and quantiles are ordered;
//! 3. read-only concurrency is *invisible*: a concurrent run's per-op
//!    results equal a sequential replay of the same seed, and both equal
//!    the sequential `Runner`'s answer for the same query instances.

use std::time::{Duration, Instant};

use graphmark::core::catalog::{execute, QueryInstance};
use graphmark::core::params::Workload;
use graphmark::core::report::{Outcome, RunMode};
use graphmark::core::runner::{BenchConfig, Runner};
use graphmark::model::testkit;
use graphmark::registry::EngineKind;
use graphmark::workload::{
    prepare, run_backend, run_backend_sequential, HostBackend, MixKind, Op, Pacing, SharedEngine,
    WorkloadConfig, SHED_CARD,
};

fn cfg(mix: MixKind, threads: u32, ops: u64) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker: ops,
        seed: 1234,
        record_cardinalities: true,
        ..WorkloadConfig::default()
    }
}

/// Guarantee 1: every engine survives a concurrent mixed workload.
#[test]
fn mixed_run_completes_on_every_engine() {
    let data = testkit::chain_dataset(150);
    for kind in EngineKind::ALL {
        let c = cfg(MixKind::Mixed, 4, 40);
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let report = run_backend(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: driver failed: {e}", kind.name()));
        assert_eq!(
            report.ops() + report.errors(),
            4 * 40,
            "{}: all ops accounted for",
            kind.name()
        );
        assert_eq!(report.errors(), 0, "{}: no op errors", kind.name());
    }
}

/// Guarantee 2: histogram bookkeeping is internally consistent.
#[test]
fn histogram_counts_are_monotone_and_complete() {
    let data = testkit::chain_dataset(150);
    for kind in [
        EngineKind::LinkedV2,
        EngineKind::ColumnarV05,
        EngineKind::Triple,
    ] {
        let c = cfg(MixKind::Mixed, 3, 50);
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let report = run_backend(&backend, &data.name, &c).unwrap();
        let h = &report.hist;
        let bucket_sum: u64 = h.buckets().iter().sum();
        assert_eq!(
            bucket_sum,
            h.count(),
            "{}: buckets sum to count",
            kind.name()
        );
        assert_eq!(h.count(), 3 * 50, "{}: every op recorded", kind.name());
        // Monotone histograms: the quantile function must be non-decreasing
        // in q, and the bucket prefix sums must end exactly at the count.
        let mut prev_q = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                v >= prev_q,
                "{}: quantile({q}) = {v} < previous {prev_q}",
                kind.name()
            );
            prev_q = v;
        }
        let prefix_end: u64 = h.buckets().iter().sum();
        assert_eq!(prefix_end, h.count(), "{}: prefix sums close", kind.name());
        assert!(h.p50() <= h.p95(), "{}: p50 <= p95", kind.name());
        assert!(h.p95() <= h.p99(), "{}: p95 <= p99", kind.name());
        assert!(h.p99() <= h.max_nanos(), "{}: p99 <= max", kind.name());
        assert!(h.min_nanos() <= h.p50(), "{}: min <= p50", kind.name());
        // Per-worker histograms merge into exactly the totals.
        let worker_sum: u64 = report.workers.iter().map(|w| w.hist.count()).sum();
        assert_eq!(worker_sum, h.count(), "{}: merge is lossless", kind.name());
    }
}

/// Guarantee 3a: concurrent read-only results equal the sequential replay.
#[test]
fn concurrent_reads_match_sequential_on_every_engine() {
    let data = testkit::chain_dataset(200);
    for kind in EngineKind::ALL {
        let c = cfg(MixKind::ReadOnly, 4, 30);
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let concurrent = run_backend(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: concurrent run failed: {e}", kind.name()));
        let sequential = run_backend_sequential(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}", kind.name()));
        assert_eq!(
            concurrent.cardinality_trace(),
            sequential.cardinality_trace(),
            "{}: concurrent read results must match the sequential replay",
            kind.name()
        );
        assert_eq!(concurrent.errors(), 0, "{}: reads never error", kind.name());
    }
}

/// Guarantee 3b: the driver's per-op answers equal the sequential `Runner`
/// executing the same query instances on the same seed.
#[test]
fn driver_results_match_sequential_runner() {
    let data = testkit::chain_dataset(200);
    let kind = EngineKind::LinkedV1;
    let c = cfg(MixKind::ReadOnly, 2, 25);

    // What the driver answered, op by op.
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, c.seed).unwrap();
    let report = run_backend(
        &HostBackend::new(&host, &params, c.op_timeout),
        &data.name,
        &c,
    )
    .unwrap();

    // The same op sequence replayed through catalog::execute on a fresh
    // engine (the Runner's execution path), with the same Workload seed.
    let mix = c.mix.mix();
    let workload = Workload::choose(&data, c.seed, 16);
    let mut db = kind.make();
    db.bulk_load(&data, &graphmark::model::api::LoadOptions::default())
        .unwrap();
    let params = workload.resolve(db.as_ref()).unwrap();
    let ctx = graphmark::model::QueryCtx::unbounded();
    let mut expected = Vec::new();
    for worker in 0..c.threads as usize {
        for op in mix.sequence(c.seed, worker, c.ops_per_worker) {
            match op {
                Op::Read(inst) => {
                    expected.push(execute(&inst, db.as_mut(), &params, 0, &ctx).unwrap())
                }
                Op::Write(_) => unreachable!("read-only mix"),
            }
        }
    }
    assert_eq!(
        report.cardinality_trace(),
        expected,
        "driver answers equal catalog::execute on the same seed"
    );

    // And the Runner agrees for a representative instance (Q8).
    let runner_factory = move || kind.make();
    let mut runner = Runner::new(&runner_factory, &data, &workload, BenchConfig::default());
    let q8 = QueryInstance::plain(graphmark::core::catalog::QueryId::Q8);
    let m = runner.run_instance(&q8, RunMode::Isolation);
    assert_eq!(m.outcome, Outcome::Completed);
    assert_eq!(m.cardinality, Some(data.vertex_count() as u64));
}

/// Overload guarantee: an open-loop run offered far more than an engine can
/// absorb terminates within a wall-clock bound, reports `shed > 0`, keeps
/// `ops + errors + shed == threads * ops_per_worker`, and — because shedding
/// never advances or skips the deterministic op stream — every *executed*
/// position of a read-only trace still matches the sequential replay.
#[test]
fn overloaded_open_loop_sheds_is_bounded_and_deterministic() {
    let data = testkit::chain_dataset(1_500);
    for kind in [EngineKind::LinkedV2, EngineKind::Triple] {
        let c = WorkloadConfig {
            // Scan-heavy is read-only and slow per op: offered at 2M ops/s
            // it overloads every engine, so the 5 ms backlog bound engages.
            pacing: Pacing::open_bounded(2_000_000.0, Duration::from_millis(5)),
            ..cfg(MixKind::ScanHeavy, 2, 1_500)
        };
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let t0 = Instant::now();
        let report = run_backend(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: overload run failed: {e}", kind.name()));
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "{}: overload run must terminate in bounded time",
            kind.name()
        );
        assert!(report.shed() > 0, "{}: overload must shed", kind.name());
        assert_eq!(
            report.ops() + report.errors() + report.shed(),
            2 * 1_500,
            "{}: completed + errored + shed covers every scheduled op",
            kind.name()
        );
        assert_eq!(
            report.hist.count(),
            report.ops() + report.errors(),
            "{}: shed ops stay out of the latency histogram",
            kind.name()
        );
        // The scaling row and CSV carry the shed/offered accounting.
        let row = report.scaling_row();
        assert_eq!(row.shed, report.shed(), "{}", kind.name());
        assert_eq!(
            row.offered_ops_per_sec,
            Some(2_000_000.0),
            "{}",
            kind.name()
        );
        let csv = graphmark::core::summary::scaling_to_csv(&[row]);
        assert!(csv.contains("2000000.0"), "{}: {csv}", kind.name());

        // Read-only determinism under shedding.
        let sequential = run_backend_sequential(&backend, &data.name, &c)
            .unwrap_or_else(|e| panic!("{}: sequential replay failed: {e}", kind.name()));
        let (ct, st) = (report.cardinality_trace(), sequential.cardinality_trace());
        assert_eq!(ct.len(), st.len(), "{}", kind.name());
        for (i, (c, s)) in ct.iter().zip(st.iter()).enumerate() {
            if *c != SHED_CARD {
                assert_eq!(
                    c,
                    s,
                    "{}: executed position {i} must match the sequential replay",
                    kind.name()
                );
            }
        }
    }
}

/// The scalability sweep wiring: scaling rows render for a 1→2-thread sweep.
#[test]
fn scaling_rows_render() {
    let data = testkit::chain_dataset(120);
    let mut rows = Vec::new();
    for threads in [1, 2] {
        let kind = EngineKind::Relational;
        let c = cfg(MixKind::ReadHeavy, threads, 30);
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let backend = HostBackend::new(&host, &params, c.op_timeout);
        let report = run_backend(&backend, &data.name, &c).unwrap();
        rows.push(report.scaling_row());
    }
    let text = graphmark::core::summary::render_scaling(&rows);
    assert!(text.contains("relational/read-heavy"), "{text}");
    assert!(text.contains("1.00x"), "baseline speedup present:\n{text}");
    let csv = graphmark::core::summary::scaling_to_csv(&rows);
    assert_eq!(csv.lines().count(), 3);
}
