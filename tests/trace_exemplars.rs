//! The flight recorder attributes a tail honestly, and `GM_TRACE=off`
//! records nothing.
//!
//! A synthetic backend injects a 2 ms `EngineExec` span into 4% of its ops
//! (every `op_index % 50 == 7`), so the p99 of a run lies inside the
//! injected population. The run's `p99_exemplar` must resolve in the ring
//! to one of those ops, tagged tail, and its id must re-derive from the
//! record's (worker, op_index). With tracing off, no id is derived and the
//! ring does not grow.
//!
//! Both tests set the process-global trace mode, so they serialize on a
//! lock and live in their own test binary.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use gm_obs::trace::{self, TraceMode, TraceOrigin};
use gm_obs::{phase, Phase};
use graphmark::model::GdbResult;
use graphmark::workload::{
    run_backend, Backend, MixKind, Op, OpResult, RunReport, Session, WorkloadConfig,
};

const SEED: u64 = 42;
/// Ops whose `op_index % VICTIM_MOD == VICTIM_REM` get the injected delay:
/// 4% of the run, wider than the p99 cut.
const VICTIM_MOD: u64 = 50;
const VICTIM_REM: u64 = 7;
const DELAY: Duration = Duration::from_millis(2);

static MODE: Mutex<()> = Mutex::new(());

/// A backend whose "engine" is a spin-wait: a no-op for most ops, a
/// [`DELAY`]-long `EngineExec` span for the victims.
struct DelayBackend;

impl Backend for DelayBackend {
    fn engine(&self) -> String {
        "delay-injector".into()
    }

    fn open_session(&self, _worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        Ok(Box::new(DelayBackend))
    }
}

impl Session for DelayBackend {
    fn execute(&mut self, _op: Op, _worker: usize, op_index: u64) -> GdbResult<OpResult> {
        phase::reset_op();
        if op_index % VICTIM_MOD == VICTIM_REM {
            let _span = phase::span_always(Phase::EngineExec);
            let start = Instant::now();
            while start.elapsed() < DELAY {
                std::hint::spin_loop();
            }
        }
        Ok(OpResult::plain(1).with_phases(phase::take_all()))
    }
}

fn run_delayed() -> RunReport {
    let cfg = WorkloadConfig {
        mix: MixKind::ReadHeavy,
        threads: 2,
        ops_per_worker: 400,
        seed: SEED,
        ..WorkloadConfig::default()
    };
    run_backend(&DelayBackend, "synthetic", &cfg).expect("run")
}

#[test]
fn p99_exemplar_resolves_to_an_injected_tail_op() {
    let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_mode(TraceMode::Tail);
    let row = run_delayed().scaling_row();
    assert_ne!(row.p99_exemplar, 0, "tail mode stamps a p99 exemplar");
    let rec = trace::global_ring()
        .find(row.p99_exemplar)
        .expect("the p99 exemplar resolves in the flight recorder");
    assert!(rec.tail, "the exemplar's record is tagged tail");
    assert_eq!(rec.origin, TraceOrigin::Client);
    assert_eq!(
        rec.op_index % VICTIM_MOD,
        VICTIM_REM,
        "exemplar (worker {}, op {}) is not an injected op",
        rec.worker,
        rec.op_index
    );
    assert_eq!(
        trace::derive_id(SEED, rec.worker, rec.op_index),
        rec.id,
        "a record's (worker, op_index) re-derives its id"
    );
    let exec = rec.phases.get(Phase::EngineExec);
    assert!(
        exec >= rec.total_nanos.saturating_mul(4) / 5,
        "the injected phase covers {exec} of {} ns",
        rec.total_nanos
    );
}

#[test]
fn off_mode_derives_no_id_and_records_nothing() {
    let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_mode(TraceMode::Off);
    assert_eq!(
        trace::derive_id(SEED, 0, 0),
        0,
        "off derives the no-trace id"
    );
    let before = trace::global_ring().pushed();
    let row = run_delayed().scaling_row();
    assert_eq!(row.p99_exemplar, 0, "off stamps no exemplar");
    assert_eq!(
        trace::global_ring().pushed(),
        before,
        "the ring did not grow"
    );
    trace::set_mode(TraceMode::Tail);
}
