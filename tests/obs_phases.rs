//! `GM_OBS=phases` fills the per-phase columns honestly; `GM_OBS=off`
//! leaves every span-fed column at zero.
//!
//! A copy-on-write snapshot run of the mixed workload populates engine
//! exec, snapshot pin and clone/publish. On a scan-heavy run, where per-op
//! driver overhead is small against the instrumented regions, the phase
//! sum lies within [0.8, 1.1] of the end-to-end latency sum: the spans
//! cover the op, and self-time attribution never double-counts.
//!
//! The tests set the process-global observability mode, so they serialize
//! on a lock and live in their own test binary.

use std::sync::Mutex;

use gm_obs::ObsMode;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::Dataset;
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::workload::{run_snapshot, MixKind, RunReport, WorkloadConfig};

static MODE: Mutex<()> = Mutex::new(());

fn run_cow(data: &Dataset, mix: MixKind, ops: u64) -> RunReport {
    let cfg = WorkloadConfig {
        mix,
        threads: 2,
        ops_per_worker: ops,
        seed: 42,
        ..WorkloadConfig::default()
    };
    let factory = || -> Box<dyn SnapshotSource> {
        EngineKind::LinkedV2.make_snapshot_source(SnapshotMode::Cow)
    };
    run_snapshot(&factory, data, &cfg).expect("run")
}

#[test]
fn phases_mode_fills_the_columns_and_covers_the_op() {
    let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
    gm_obs::set_mode(ObsMode::Phases);
    let data = datasets::generate(DatasetId::Yeast, Scale::tiny(), 42);

    let row = run_cow(&data, MixKind::Mixed, 300).scaling_row();
    assert!(row.engine_exec_nanos > 0, "engine_exec is zero");
    assert!(
        row.snapshot_pin_nanos > 0,
        "snapshot_pin is zero on a snapshot run"
    );
    assert!(
        row.clone_publish_nanos > 0,
        "clone_publish is zero on a writing cow run"
    );

    let scans = run_cow(&data, MixKind::ScanHeavy, 150);
    let phase_sum = scans.phase_nanos().total() as f64;
    let wall = scans.hist.sum_nanos() as f64;
    let ratio = phase_sum / wall.max(1.0);
    assert!(
        (0.8..=1.1).contains(&ratio),
        "phase sum {phase_sum} ns against end-to-end {wall} ns (ratio {ratio:.3})"
    );
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
