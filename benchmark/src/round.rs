//! One round of a workload: fresh set-up, a measured region of frozen size,
//! and the numbers and checks that come out of it.

use std::time::Instant;

use graphmark::core::catalog::{self, Category, QueryId, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::datasets::{self, Scale};
use graphmark::model::api::LoadOptions;
use graphmark::model::{graphson, Dataset, Eid, GdbResult, GraphDb, QueryCtx};
use graphmark::registry::EngineKind;
use graphmark::workload::{apply_write, Op, WorkloadConfig, WriteOp, WORKLOAD_SLOTS};

use crate::gate::{self, Expected, Observed};
use crate::record::WorkerLog;
use crate::stack::{config, Oracle, Outcome, Stack, OP_TIMEOUT};
use crate::stats::{checksum, geomean};
use crate::sys;
use crate::workloads::{Spec, ENGINES};

/// What one round measured and counted.
pub struct Round {
    /// The dataset the round ran on: name and sizes.
    pub dataset: String,
    /// Completed ops over the measured wall seconds (`micro`: geometric mean
    /// of the seven per-engine rates).
    pub ops_per_s: f64,
    /// Process user+sys CPU time in the measured region over completed ops.
    pub cpu_us_per_op: f64,
    /// Everything in the round outside its measured region.
    pub setup_s: f64,
    pub measured_s: f64,
    /// `VmHWM` at the end of the round's measured region: the process's
    /// peak so far.
    pub peak_rss_mb: f64,
    pub space_amp: f64,
    /// Mean of the yardstick's readings before, during (about every tenth of
    /// a second) and after the measured region: nanoseconds per step.
    pub step_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub ops: u64,
    pub read_ops: u64,
    pub errors: u64,
    pub txn_conflicts: u64,
    pub checksum: u64,
    pub vertices: u64,
    pub edges: u64,
    pub phases: gm_obs::PhaseNanos,
    /// The exact span of every op, per worker: a run pools them over its
    /// rounds for the latency percentiles.
    pub logs: Vec<WorkerLog>,
    /// Why the round's outputs are wrong; empty when they are right.
    pub violations: Vec<String>,
}

impl Round {
    /// What a time taken in this round is multiplied by to quote it at the
    /// reference step time.
    pub fn at_reference(&self) -> f64 {
        sys::REFERENCE_STEP_NS / self.step_ns
    }

    /// What the gate judges this round by.
    pub fn observed(&self, what: &str) -> Observed {
        Observed {
            what: what.to_string(),
            attempted: self.attempted,
            failed: self.failed,
            checksum: self.checksum,
            vertices: self.vertices,
            edges: self.edges,
        }
    }
}

/// The seed round `index` of a run draws its inputs from. One draw of the
/// resolved parameters (a hub or a leaf as the anchor vertex, a common or a
/// rare label) moves a workload's numbers by far more than any bound, so a
/// run takes a fresh draw every round and reports the median over rounds:
/// what `--seed` picks is the sequence of draws.
pub fn round_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every dataset is generated at 1/2000 of the paper's size, which leaves
/// `yeast` at its full 2 361 vertices.
pub fn dataset(spec: &Spec, seed: u64) -> Dataset {
    datasets::generate(spec.dataset, Scale::small(), seed)
}

/// The dataset's name and sizes, for the disclosure lines of a result.
fn describe(data: &Dataset) -> String {
    format!(
        "{} at 1/2000, |V|={} |E|={} |L|={}, {} bytes of raw GraphSON",
        data.name,
        data.vertex_count(),
        data.edge_count(),
        data.edge_label_set().len(),
        graphson::raw_json_bytes(data)
    )
}

pub fn workload_config(spec: &Spec, seed: u64, ops: u64) -> WorkloadConfig {
    config(spec.mix, seed, spec.threads, ops)
}

/// The seed draw `index` of a round resolves its parameters and takes its op
/// streams from (draw 0 is the round's own seed).
pub fn draw_seed(round_seed: u64, index: u64) -> u64 {
    round_seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Measured time after which a round reads the yardstick again.
const YARDSTICK_EVERY_NS: u64 = 100_000_000;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A round of a driven workload on its own stack: one load, then
/// `spec.draws` replays of `ops / spec.draws` ops per worker, each on freshly
/// drawn parameters. The measured region is the replays; drawing is set-up.
pub fn stack_round(spec: &Spec, seed: u64, ops: u64) -> GdbResult<Round> {
    let begun = Instant::now();
    let data = dataset(spec, seed);
    let mut stack = Stack::build(spec.rung, spec.engine, &data, seed)?;
    let space = stack.space_bytes()?;
    let mix = spec.mix.mix();
    let (round_ops, ops) = (ops, (ops / spec.draws).max(1));
    if mix.is_read_only() {
        // Untimed warm-up: 2% of the round's ops, from the head of the first
        // draw's streams. A stream with writes starts from freshly loaded
        // state instead.
        let head = (round_ops / 50).clamp(1, ops);
        stack.drive(&workload_config(spec, seed, head), false)?;
    }
    let mut setup = begun.elapsed();
    let (mut total, mut cpu) = (None::<Outcome>, 0.0);
    let mut drawn = Vec::new();
    let (mut yardstick, mut unread_ns) = (vec![sys::yardstick_step_ns()], 0);
    for draw in 0..spec.draws {
        let drawing = Instant::now();
        let params_seed = draw_seed(seed, draw);
        let reloaded = draw > 0 && stack.redraw(&data, params_seed)?;
        let cfg = workload_config(spec, params_seed, ops);
        setup += drawing.elapsed();
        let cpu0 = sys::cpu_micros();
        let out = stack.drive(&cfg, false)?;
        cpu += sys::cpu_micros().zip(cpu0).map_or(0.0, |(a, b)| a - b);
        unread_ns += out.wall_ns;
        if unread_ns >= YARDSTICK_EVERY_NS || draw + 1 == spec.draws {
            yardstick.push(sys::yardstick_step_ns());
            unread_ns = 0;
        }
        drawn.push((params_seed, cfg, reloaded));
        match &mut total {
            Some(t) => t.absorb(out),
            None => total = Some(out),
        }
    }
    let mut out = total.expect("a round has at least one draw");
    let after = Instant::now();
    stack.count(&mut out)?;
    stack.shutdown();
    let setup_s = setup.as_secs_f64()
        + out.call_ns.saturating_sub(out.wall_ns) as f64 / 1e9
        + after.elapsed().as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mib().unwrap_or(0.0);
    // Checking is neither set-up nor measured.
    let mut oracle = Oracle::new(spec.engine, &data, mix)?;
    for (params_seed, cfg, reloaded) in &drawn {
        oracle.replay(&data, *params_seed, cfg, *reloaded)?;
    }
    let measured_s = out.wall_ns as f64 / 1e9;
    Ok(Round {
        dataset: describe(&data),
        ops_per_s: out.ops as f64 / measured_s,
        cpu_us_per_op: cpu / out.ops.max(1) as f64,
        setup_s,
        measured_s,
        peak_rss_mb,
        space_amp: space as f64 / graphson::raw_json_bytes(&data) as f64,
        step_ns: mean(&yardstick),
        attempted: out.attempted(),
        failed: out.failed(),
        ops: out.ops,
        read_ops: out.read_ops,
        errors: out.errors,
        txn_conflicts: out.txn_conflicts,
        checksum: out.checksum(),
        vertices: out.vertices,
        edges: out.edges,
        phases: out.phases,
        violations: gate::check(&out.observed(spec.name), &oracle.expected()),
        logs: out.logs,
    })
}

/// The op classes of the paper's suite as the engine probes split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Traverse,
    Write,
}

/// One pass over the suite: catalog reads Q8–Q15 and Q22–Q35 (BFS at depth
/// 2), then the four CUD writes.
pub fn suite() -> Vec<(Class, Op)> {
    let mut ops: Vec<(Class, Op)> = QueryId::ALL
        .iter()
        .filter_map(|id| {
            let class = match id.category() {
                Category::Read => Class::Read,
                Category::Traversal => Class::Traverse,
                _ => return None,
            };
            let depth = matches!(id, QueryId::Q32 | QueryId::Q33).then_some(2);
            Some((
                class,
                Op::Read(QueryInstance {
                    id: *id,
                    depth,
                    k: None,
                }),
            ))
        })
        .collect();
    ops.extend(
        [
            WriteOp::AddVertex,
            WriteOp::AddEdge,
            WriteOp::SetVertexProp,
            WriteOp::RemoveOwnEdge,
        ]
        .map(|w| (Class::Write, Op::Write(w))),
    );
    ops
}

/// A loaded bare engine with one set of resolved parameters per draw.
pub struct Bare {
    pub db: Box<dyn GraphDb>,
    pub params: Vec<ResolvedParams>,
    pub load_s: f64,
}

/// Load `data` into a fresh engine and resolve `draws` parameter draws
/// against it.
pub fn load_bare(kind: EngineKind, data: &Dataset, seed: u64, draws: u64) -> GdbResult<Bare> {
    let t = Instant::now();
    let mut db = kind.make();
    db.bulk_load(data, &LoadOptions::default())?;
    db.sync()?;
    let load_s = t.elapsed().as_secs_f64();
    let params = (0..draws)
        .map(|d| Workload::choose(data, draw_seed(seed, d), WORKLOAD_SLOTS).resolve(db.as_ref()))
        .collect::<GdbResult<_>>()?;
    Ok(Bare { db, params, load_s })
}

impl Bare {
    /// Run one suite op on draw `draw`'s parameters; `index` numbers the op
    /// for the write payloads.
    pub fn execute(
        &mut self,
        op: &Op,
        draw: usize,
        index: u64,
        owned: &mut Vec<Eid>,
    ) -> GdbResult<u64> {
        let params = &self.params[draw % self.params.len()];
        match op {
            Op::Read(inst) => {
                let ctx = QueryCtx::with_timeout(OP_TIMEOUT);
                catalog::execute_read(inst, self.db.as_ref(), params, &ctx)
            }
            Op::Write(w) => apply_write(*w, self.db.as_mut(), params, 0, index, owned),
        }
    }
}

/// A round of `micro`: all seven engines loaded, then `passes` passes of
/// the suite on each, one engine after another on one thread; every pass on
/// freshly drawn parameters.
pub fn micro_round(spec: &Spec, seed: u64, passes: u64) -> GdbResult<Round> {
    let begun = Instant::now();
    let data = dataset(spec, seed);
    let raw = graphson::raw_json_bytes(&data) as f64;
    let mut engines = Vec::new();
    for (name, kind) in ENGINES {
        engines.push((name, load_bare(kind, &data, seed, passes)?));
    }
    let space: Vec<f64> = engines
        .iter()
        .map(|(_, e)| e.db.space().total() as f64 / raw)
        .collect();
    let suite = suite();
    let setup = begun.elapsed();

    // The measured region is the seven pass loops; an engine's end state is
    // read between them, outside it.
    let (mut measured_s, mut cpu) = (0.0, 0.0);
    let mut yardstick = vec![sys::yardstick_step_ns()];
    let (mut rates, mut violations) = (Vec::new(), Vec::new());
    let mut log = WorkerLog::new(0, engines.len() * suite.len() * passes as usize);
    let mut seen: Vec<Observed> = Vec::new();
    for (name, engine) in &mut engines {
        let (mut cards, mut owned, mut errors) = (Vec::new(), Vec::new(), 0);
        let cpu0 = sys::cpu_micros();
        let engine_started = Instant::now();
        for pass in 0..passes {
            for (i, (_, op)) in suite.iter().enumerate() {
                let index = pass * suite.len() as u64 + i as u64;
                let t = Instant::now();
                let res = engine.execute(op, pass as usize, index, &mut owned);
                log.push(t, op.is_write());
                match res {
                    Ok(card) => cards.push(card),
                    Err(e) => {
                        errors += 1;
                        violations.push(format!("micro: {name} {}: {e}", op.label()));
                    }
                }
            }
        }
        let engine_s = engine_started.elapsed().as_secs_f64();
        cpu += sys::cpu_micros().zip(cpu0).map_or(0.0, |(a, b)| a - b);
        measured_s += engine_s;
        rates.push(cards.len() as f64 / engine_s);
        yardstick.push(sys::yardstick_step_ns());
        let ctx = QueryCtx::unbounded();
        seen.push(Observed {
            what: format!("micro/{name}"),
            attempted: suite.len() as u64 * passes,
            failed: errors,
            checksum: checksum(cards),
            vertices: engine.db.vertex_count(&ctx)?,
            edges: engine.db.edge_count(&ctx)?,
        });
    }
    // Read before the checks below allocate anything of their own.
    let peak_rss_mb = sys::peak_rss_mib().unwrap_or(0.0);

    // The engines are each other's oracle: seven architectures must give
    // the same answers to the same ops. A pass adds one vertex, and adds and
    // removes one edge.
    let want = Expected {
        checksum: None,
        vertices: data.vertex_count() as u64 + passes,
        edges: data.edge_count() as u64,
    };
    violations.extend(seen.iter().flat_map(|o| gate::check(o, &want)));
    violations.extend(gate::agree(&seen, true));
    let errors: u64 = seen.iter().map(|o| o.failed).sum();
    let attempted = (engines.len() * suite.len()) as u64 * passes;
    let ops = attempted - errors;
    let reads_per_pass = suite.iter().filter(|(_, op)| !op.is_write()).count() as u64;
    Ok(Round {
        dataset: describe(&data),
        ops_per_s: geomean(&rates).unwrap_or(0.0),
        cpu_us_per_op: cpu / ops.max(1) as f64,
        setup_s: setup.as_secs_f64(),
        measured_s,
        peak_rss_mb,
        space_amp: geomean(&space).unwrap_or(0.0),
        step_ns: mean(&yardstick),
        attempted,
        failed: errors,
        ops,
        read_ops: engines.len() as u64 * passes * reads_per_pass,
        errors,
        txn_conflicts: 0,
        checksum: seen[0].checksum,
        vertices: seen[0].vertices,
        edges: seen[0].edges,
        phases: gm_obs::PhaseNanos::zero(),
        logs: vec![log],
        violations,
    })
}
