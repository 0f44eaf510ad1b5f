//! `GM_OBS=phases` fills the per-phase columns honestly; `GM_OBS=off`
//! leaves every span-fed column at zero.
//!
//! Every in-process host — locked, copy-on-write snapshot, 2-shard
//! sharded-locked — fills engine exec on the mixed workload, and the cow
//! run also snapshot pin and clone/publish. On a scan-heavy run, where
//! per-op driver overhead is small against the instrumented regions, the
//! phase sum lies within [0.8, 1.1] of the end-to-end latency sum on each
//! host: the spans cover the op, and self-time attribution never
//! double-counts.
//!
//! The tests set the process-global observability mode, so they serialize
//! on a lock and live in their own test binary.

use std::sync::Mutex;

use gm_obs::ObsMode;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::Dataset;
use graphmark::mvcc::SnapshotMode;
use graphmark::registry::EngineKind;
use graphmark::workload::{
    prepare, run_backend, Host, HostBackend, MixKind, RunReport, SharedEngine, WorkloadConfig,
};

static MODE: Mutex<()> = Mutex::new(());

const KIND: EngineKind = EngineKind::LinkedV2;

fn run_on(host: &dyn Host, data: &Dataset, mix: MixKind, ops: u64) -> RunReport {
    let cfg = WorkloadConfig {
        mix,
        threads: 2,
        ops_per_worker: ops,
        seed: 42,
        ..WorkloadConfig::default()
    };
    let params = prepare(host, data, cfg.seed).expect("prepare");
    run_backend(
        &HostBackend::new(host, &params, cfg.op_timeout),
        &data.name,
        &cfg,
    )
    .expect("run")
}

fn run_cow(data: &Dataset, mix: MixKind, ops: u64) -> RunReport {
    run_on(
        &KIND.make_snapshot_source(SnapshotMode::Cow),
        data,
        mix,
        ops,
    )
}

/// A fresh, empty host of each in-process kind.
fn hosts() -> [Box<dyn Host>; 3] {
    [
        Box::new(SharedEngine::new(KIND.make())),
        Box::new(KIND.make_snapshot_source(SnapshotMode::Cow)),
        Box::new(KIND.make_sharded(2)),
    ]
}

#[test]
fn phases_mode_fills_the_columns_and_covers_the_op() {
    let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
    gm_obs::set_mode(ObsMode::Phases);
    let data = datasets::generate(DatasetId::Yeast, Scale::tiny(), 42);

    for host in hosts() {
        let row = run_on(&host, &data, MixKind::Mixed, 300).scaling_row();
        let isolation = &row.isolation;
        assert!(
            row.engine_exec_nanos > 0,
            "{isolation}: engine_exec is zero"
        );
        if isolation == "snapshot-cow" {
            assert!(
                row.snapshot_pin_nanos > 0,
                "snapshot_pin is zero on a snapshot run"
            );
            assert!(
                row.clone_publish_nanos > 0,
                "clone_publish is zero on a writing cow run"
            );
        }
    }

    for host in hosts() {
        let scans = run_on(&host, &data, MixKind::ScanHeavy, 150);
        let phase_sum = scans.phase_nanos().total() as f64;
        let wall = scans.hist.sum_nanos() as f64;
        let ratio = phase_sum / wall.max(1.0);
        assert!(
            (0.8..=1.1).contains(&ratio),
            "{}: phase sum {phase_sum} ns against end-to-end {wall} ns (ratio {ratio:.3})",
            scans.isolation
        );
    }
}

#[test]
fn off_mode_leaves_the_span_columns_empty() {
    let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
    gm_obs::set_mode(ObsMode::Off);
    let data = datasets::generate(DatasetId::Yeast, Scale::tiny(), 42);
    let row = run_cow(&data, MixKind::Mixed, 300).scaling_row();
    gm_obs::set_mode(ObsMode::Phases);
    assert_eq!(
        [
            row.engine_exec_nanos,
            row.snapshot_pin_nanos,
            row.clone_publish_nanos,
            row.wire_encode_nanos,
            row.wire_io_nanos,
        ],
        [0; 5],
        "span-fed phase columns under GM_OBS=off"
    );
}
