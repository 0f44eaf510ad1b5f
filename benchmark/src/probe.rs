//! The traced run's per-layer measurements: the workload's op stream
//! replayed at every rung of the ladder, and loops of direct calls into each
//! layer's public functions.
//!
//! Every replay here issues its ops from one thread, one worker after
//! another, so a rung's ns/op is the cost of the call path without any
//! waiting on another client, and rung deltas are taxes. (The wire and fleet
//! rungs still hand each op to a server thread, which on this box often
//! means waking the other CPU.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gm_net::{Connection, Request, Response};
use graphmark::core::catalog::{self, QueryId, QueryInstance};
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::{graphson, Dataset, GdbResult, QueryCtx};
use graphmark::shard::SharedWriter;
use graphmark::workload::{apply_write, Op, WorkloadConfig, WriteOp};

use crate::gate::{self, Observed};
use crate::round::{load_bare, suite, Class};
use crate::stack::{config, Oracle, Rung, Stack, OP_TIMEOUT};
use crate::workloads::{Spec, ENGINES};

/// `(metric name, value)` in the order measured.
pub type Metrics = Vec<(String, f64)>;

pub struct Probed {
    pub metrics: Metrics,
    /// Where the program's own phase spans and a rung delta disagree.
    pub flags: Vec<String>,
    /// One observation per ladder rung, bottom to top.
    pub rungs: Vec<Observed>,
    pub violations: Vec<String>,
}

const WRITES: [WriteOp; 4] = [
    WriteOp::AddVertex,
    WriteOp::AddEdge,
    WriteOp::SetVertexProp,
    WriteOp::RemoveOwnEdge,
];

/// Mean seconds per call of `f` over `calls` calls.
fn mean_secs(calls: u64, mut f: impl FnMut(u64) -> GdbResult<()>) -> GdbResult<f64> {
    let t = Instant::now();
    for i in 0..calls {
        f(i)?;
    }
    Ok(t.elapsed().as_secs_f64() / calls.max(1) as f64)
}

/// Replay the head of the workload's streams, one worker after another, at
/// every rung; probe each layer while its rung is loaded.
pub fn ladder_and_layers(spec: &Spec, seed: u64, quick: bool) -> GdbResult<Probed> {
    let data = crate::round::dataset(spec, seed);
    let cfg = config(
        spec.mix,
        seed,
        spec.threads,
        spec.ladder_ops_per_worker(quick),
    );
    let mix = spec.mix.mix();
    let mut oracle = Oracle::new(spec.engine, &data, mix.clone())?;
    oracle.replay(&data, seed, &cfg, true)?;
    let mut p = Probed {
        metrics: Vec::new(),
        flags: Vec::new(),
        rungs: Vec::new(),
        violations: Vec::new(),
    };

    let mut ns_op = Vec::new();
    // (layer, the gm-obs phases that should add up to its tax, ns/op)
    let mut attributed: Vec<(&str, &str, f64)> = Vec::new();
    for (name, rung) in Rung::LADDER {
        let mut stack = Stack::build(rung, spec.engine, &data, seed)?;
        let mut out = stack.drive(&cfg, true)?;
        stack.count(&mut out)?;
        let seen = out.observed(&format!("{}/ladder.{name}", spec.name));
        p.violations.extend(gate::check(&seen, &oracle.expected()));
        p.rungs.push(seen);
        ns_op.push(out.ns_per_op());
        p.metrics
            .push((format!("ladder.{name}_ns_op"), out.ns_per_op()));
        // On the rungs whose tax gm-obs attributes to phases of its own,
        // replay once more with those spans on, for the cross-check below.
        use gm_obs::Phase::*;
        let phases: &[gm_obs::Phase] = match &stack {
            Stack::Snap { .. } => &[SnapshotPin, ClonePublish],
            Stack::Wire { .. } => &[WireEncode, WireIo],
            _ => &[],
        };
        if !phases.is_empty() {
            gm_obs::set_mode(gm_obs::ObsMode::Phases);
            let again = stack.drive(&cfg, true);
            gm_obs::set_mode(gm_obs::ObsMode::Off);
            let again = again?;
            let sum: u64 = phases.iter().map(|p| again.phases.get(*p)).sum();
            let per_op = sum as f64 / again.ops.max(1) as f64;
            match &stack {
                Stack::Snap { .. } => {
                    attributed.push(("mvcc", "snapshot_pin + clone_publish", per_op));
                    mvcc(&stack, &mut p.metrics)?
                }
                _ => {
                    attributed.push(("net", "wire_encode + wire_io", per_op));
                    net(&stack, &cfg, &mut p.metrics)?
                }
            }
        }
        stack.shutdown();
    }
    p.violations
        .extend(gate::agree(&p.rungs, mix.is_read_only()));
    let [bare, local, snap, shard1, wire, fleet1] = ns_op[..] else {
        unreachable!("the ladder has six rungs");
    };
    for (name, tax) in [
        ("workload.tax_ns_op", local - bare),
        ("mvcc.tax_ns_op", snap - local),
        ("shard.tax_ns_op", shard1 - local),
        ("net.tax_ns_op", wire - local),
        ("fleet.tax_ns_op", fleet1 - wire),
    ] {
        p.metrics.push((name.to_string(), tax));
        // The same stream on the same thread, so the two should agree;
        // beyond a quarter apart, one of them is attributing wrongly.
        // A tax under a quarter of the rung below it is within the noise
        // of two replays and is not checked.
        for (_, phases, per_op) in attributed.iter().filter(|a| name.starts_with(a.0)) {
            if tax > 0.25 * local && (per_op - tax).abs() > 0.25 * tax {
                p.flags.push(format!(
                    "{phases} = {per_op:.0} ns/op but {name} = {tax:.0} ns/op"
                ));
            }
        }
    }
    // Each of these rungs adds a layer to the one before it, so it should
    // not be cheaper by more than two replays differ (a twentieth). The top
    // step is predicted on a read-only stream only: a fleet batches and
    // pipelines writes, which is cheaper than a round trip per op.
    let mut climb = vec![("bare", bare), ("local", local), ("wire", wire)];
    if mix.is_read_only() {
        climb.push(("fleet1", fleet1));
    }
    for pair in climb.windows(2) {
        let ((below, low), (above, high)) = (pair[0], pair[1]);
        if high < 0.95 * low {
            p.flags.push(format!(
                "ladder.{above}_ns_op = {high:.0} is below ladder.{below}_ns_op = {low:.0}"
            ));
        }
    }

    shard(spec, seed, &data, &mut p.metrics)?;
    fleet(spec, seed, &data, &cfg, &mut p.metrics)?;
    engines(seed, &mut p.metrics)?;
    Ok(p)
}

/// gm-mvcc through `SnapshotSource::{snapshot, with_write}` on the loaded
/// source: a clean pin, a write into an epoch already copied, and a write
/// right after a pin (which pays the copy) while that pin is still held.
fn mvcc(stack: &Stack, m: &mut Metrics) -> GdbResult<()> {
    let Stack::Snap { source, params } = stack else {
        return Ok(());
    };
    let mut owned = Vec::new();
    let mut write = |i: u64| {
        source
            .with_write(&mut |db| apply_write(WriteOp::SetVertexProp, db, params, 0, i, &mut owned))
            .map(|_| ())
    };
    drop(source.snapshot()?);
    let pin = mean_secs(2_000, |_| source.snapshot().map(drop))?;
    write(0)?;
    let clean = mean_secs(500, &mut write)?;
    let mut dirty = 0.0;
    const DIRTY: u64 = 20;
    for i in 0..DIRTY {
        let held = source.snapshot()?;
        let t = Instant::now();
        write(i)?;
        dirty += t.elapsed().as_secs_f64();
        drop(held);
    }
    m.push(("mvcc.pin_ns".into(), pin * 1e9));
    m.push(("mvcc.publish_clean_us".into(), clean * 1e6));
    m.push(("mvcc.publish_dirty_us".into(), dirty / DIRTY as f64 * 1e6));
    Ok(())
}

/// gm-net on a raw `Connection` to the loaded server: an `Epoch` ping, the
/// stream's own `ExecOp`/`ExecDone` frames through `encode`/`decode`, and
/// frames sent per op.
fn net(stack: &Stack, cfg: &WorkloadConfig, m: &mut Metrics) -> GdbResult<()> {
    let Stack::Wire { server, .. } = stack else {
        return Ok(());
    };
    let mut conn = Connection::connect(&server.addr().to_string())?;
    let frames = Arc::new(AtomicU64::new(0));
    conn.count_frames_into(Arc::clone(&frames));
    let rtt = mean_secs(2_000, |_| conn.epoch().map(drop))?;

    let ops = cfg
        .mix
        .mix()
        .sequence(cfg.seed, 0, cfg.ops_per_worker.min(2_000));
    let request = |i: usize, op: Op| Request::ExecOp {
        worker: 0,
        op_index: i as u64,
        trace_id: 0,
        timeout_micros: OP_TIMEOUT.as_micros() as u64,
        strict: true,
        op,
    };
    // Relaxed: this thread is the counter's only writer.
    let sent_before = frames.load(Ordering::Relaxed);
    let mut replies = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        replies.push(conn.call(&request(i, *op))?);
    }
    let sent = frames.load(Ordering::Relaxed) - sent_before;

    let n = ops.len().max(1) as f64;
    let t = Instant::now();
    let mut encoded = Vec::with_capacity(2 * ops.len());
    for (i, op) in ops.iter().enumerate() {
        encoded.push(request(i, *op).encode()?);
    }
    for r in &replies {
        encoded.push(r.encode()?);
    }
    let encode = t.elapsed().as_secs_f64() / n;
    let t = Instant::now();
    for (i, buf) in encoded.iter().enumerate() {
        if i < ops.len() {
            std::hint::black_box(Request::decode(buf)?);
        } else {
            std::hint::black_box(Response::decode(buf)?);
        }
    }
    let decode = t.elapsed().as_secs_f64() / n;
    m.push(("net.rtt_us".into(), rtt * 1e6));
    m.push(("net.encode_ns_op".into(), encode * 1e9));
    m.push(("net.decode_ns_op".into(), decode * 1e9));
    m.push(("net.frames_per_op".into(), sent as f64 / n));
    Ok(())
}

/// gm-shard by direct calls on a loaded 2-shard composite: whole-graph reads
/// that scatter to both shards and merge, and writes routed to one.
fn shard(spec: &Spec, seed: u64, data: &Dataset, m: &mut Metrics) -> GdbResult<()> {
    let Stack::Shard { graph, params } = Stack::build(Rung::Shard(2), spec.engine, data, seed)?
    else {
        unreachable!("a shard rung builds a shard stack");
    };
    let ctx = QueryCtx::with_timeout(OP_TIMEOUT);
    let scatter = [
        QueryId::Q8,
        QueryId::Q9,
        QueryId::Q10,
        QueryId::Q11,
        QueryId::Q13,
    ]
    .map(QueryInstance::plain);
    let read = mean_secs(20, |i| {
        let inst = &scatter[i as usize % scatter.len()];
        catalog::execute_read(inst, &graph, &params, &ctx).map(drop)
    })?;
    let mut owned = Vec::new();
    let write = mean_secs(2_000, |i| {
        let op = WRITES[i as usize % WRITES.len()];
        apply_write(
            op,
            &mut SharedWriter::new(&graph),
            &params,
            0,
            i,
            &mut owned,
        )
        .map(drop)
    })?;
    m.push(("shard.scatter_read_us".into(), read * 1e6));
    m.push(("shard.routed_write_us".into(), write * 1e6));
    Ok(())
}

/// The fleet coordinator's own counters over a replay through 2 servers.
fn fleet(
    spec: &Spec,
    seed: u64,
    data: &Dataset,
    cfg: &WorkloadConfig,
    m: &mut Metrics,
) -> GdbResult<()> {
    let mut stack = Stack::build(Rung::Fleet(2), spec.engine, data, seed)?;
    let counters = |s: &Stack| match s {
        Stack::Fleet { fleet, .. } => (
            fleet.round_trips(),
            fleet.batched_ops(),
            fleet.routing_errors(),
        ),
        _ => unreachable!("a fleet rung builds a fleet stack"),
    };
    let before = counters(&stack);
    let out = stack.drive(cfg, true)?;
    let after = counters(&stack);
    stack.shutdown();
    let ops = out.ops.max(1) as f64;
    m.push((
        "fleet.round_trips_per_op".into(),
        (after.0 - before.0) as f64 / ops,
    ));
    m.push((
        "fleet.batched_ops_frac".into(),
        (after.1 - before.1) as f64 / ops,
    ));
    m.push(("fleet.routing_errors".into(), after.2 as f64));
    Ok(())
}

/// engines/storage/traversal/core by direct calls on each bare engine: bulk
/// load, `space()`, and the suite's three op classes. Always on `yeast`,
/// `micro`'s dataset: on the larger Freebase samples the bitmap engine's whole-graph
/// degree filters run into their materialisation cap, by design, and the
/// benchmark keeps to inputs on which no op fails.
fn engines(seed: u64, m: &mut Metrics) -> GdbResult<()> {
    let data = &datasets::generate(DatasetId::Yeast, Scale::small(), seed);
    let raw = graphson::raw_json_bytes(data) as f64;
    let suite = suite();
    let budget = Duration::from_millis(40);
    for (name, kind) in ENGINES {
        let mut e = load_bare(kind, data, seed, 1)?;
        m.push((format!("engine.{name}.load_s"), e.load_s));
        m.push((
            format!("engine.{name}.space_amp"),
            e.db.space().total() as f64 / raw,
        ));
        for (class, metric) in [
            (Class::Read, "read_us_op"),
            (Class::Traverse, "traverse_us_op"),
            (Class::Write, "write_us_op"),
        ] {
            let ops: Vec<&Op> = suite
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, op)| op)
                .collect();
            // Whole passes over the class until the budget is spent.
            let (mut calls, mut owned) = (0u64, Vec::new());
            let t = Instant::now();
            while t.elapsed() < budget || calls == 0 {
                for op in &ops {
                    std::hint::black_box(e.execute(op, 0, calls, &mut owned)?);
                    calls += 1;
                }
            }
            m.push((
                format!("engine.{name}.{metric}"),
                t.elapsed().as_secs_f64() / calls as f64 * 1e6,
            ));
        }
    }
    Ok(())
}
