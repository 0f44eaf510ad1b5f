//! Runs of a workload — untraced for the end-to-end metrics, traced for the
//! per-layer ones — and the documents they are reported in.

use std::path::Path;
use std::process::{Command, ExitCode};

use graphmark::model::json::Json;
use graphmark::model::GdbResult;

use crate::gate::{self, Observed};
use crate::metrics::{self, Def};
use crate::record::WorkerLog;
use crate::round::{self, Round};
use crate::stack::Rung;
use crate::stats::{median, percentile};
use crate::workloads::Spec;
use crate::{probe, spans, sys, Args};

/// One reported number.
pub struct Value {
    pub def: Def,
    pub value: f64,
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub why: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<Value>,
    /// Disclosure: dataset sizes, round counts, how state was prepared.
    pub info: Vec<(&'static str, Json)>,
    pub violations: Vec<String>,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Report {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|v| {
                    let fields = vec![
                        ("value", Json::Float(v.value)),
                        ("unit", Json::Str(v.def.unit.clone())),
                    ];
                    (v.def.name.clone(), obj(fields))
                })
                .collect(),
        )
    }

    /// Exactly the keys the driver's contract names.
    pub fn contract_line(&self) -> Json {
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The full record: the contract's keys plus what a reader needs to
    /// judge the numbers.
    pub fn document(&self) -> Json {
        obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Float(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("comparable", Json::Bool(!self.quick)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json()),
            (
                "info",
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, then the disclosure lines.
    pub fn print_human(&self) {
        println!(
            "# {} seed={} seconds={} trace={}{}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            if self.quick {
                " quick (not comparable)"
            } else {
                ""
            }
        );
        println!("# why: {}", self.why);
        for v in &self.values {
            println!(
                "{:<34} {:>16.4} {:<10} {} is better",
                v.def.name,
                v.value,
                v.def.unit,
                v.def.better.name()
            );
        }
        for (k, v) in &self.info {
            println!("# {k}: {}", v.to_compact_string());
        }
        println!(
            "# attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
    }
}

pub fn write_file(path: &str, text: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{text}\n"))
}

fn set_obs(phases: bool) {
    gm_obs::set_mode(if phases {
        gm_obs::ObsMode::Phases
    } else {
        gm_obs::ObsMode::Off
    });
    // The program's own flight recorder stays off on both sides: spans
    // inside the program are a later issue.
    gm_obs::trace::set_mode(gm_obs::TraceMode::Off);
}

/// Rounds of one workload with everything that stays fixed across them.
struct Runner<'a> {
    spec: &'a Spec,
    seed: u64,
    ops: u64,
}

impl<'a> Runner<'a> {
    fn new(spec: &'a Spec, args: &Args) -> Runner<'a> {
        Runner {
            spec,
            seed: args.seed,
            ops: spec.ops_per_round(args.quick),
        }
    }

    /// Round `index` of the run, on the inputs drawn for it.
    fn round(&self, index: u64, phases: bool) -> GdbResult<Round> {
        set_obs(phases);
        let seed = round::round_seed(self.seed, index);
        let r = if self.spec.rung == Rung::Bare {
            round::micro_round(self.spec, seed, self.ops)
        } else {
            round::stack_round(self.spec, seed, self.ops)
        }?;
        eprintln!(
            "[{}] round {index}{}: set-up {:.3}s, measured {:.3}s, {:.0} ops/s, cpu {:.1}us/op, step {:.1}ns, rss {:.1}MiB",
            self.spec.name,
            if phases { " (traced)" } else { "" },
            r.setup_s,
            r.measured_s,
            r.ops_per_s,
            r.cpu_us_per_op,
            r.step_ns,
            r.peak_rss_mb
        );
        Ok(r)
    }

    /// Whether two replays of one seed answer every read alike. Writers
    /// interleave differently each time, so a concurrent stream with writes
    /// repeats its end state only.
    fn repeats_exactly(&self) -> bool {
        self.spec.rung == Rung::Bare || self.spec.mix.mix().is_read_only()
    }

    fn info(&self, rounds: &[&Round], planned: u64, samples: usize) -> Vec<(&'static str, Json)> {
        let read_only = self.spec.mix.mix().is_read_only();
        vec![
            (
                "dataset",
                Json::Str(format!("round 0: {}", rounds[0].dataset)),
            ),
            (
                "load",
                Json::Str(format!(
                    "closed loop, {} thread(s) on {} CPU(s), per round {}",
                    self.spec.threads,
                    std::thread::available_parallelism().map_or(0, |n| n.get()),
                    if self.spec.rung == Rung::Bare {
                        format!("{} passes of the suite on each engine", self.ops)
                    } else {
                        format!(
                            "{} ops of mix {} per worker",
                            self.ops,
                            self.spec.mix.name()
                        )
                    },
                )),
            ),
            (
                "state",
                Json::Str(format!(
                    "round i runs on inputs drawn from seed + i * 0x9E3779B97F4A7C15; {}",
                    if read_only {
                        "fresh load, then an untimed warm-up of the first 2% of the streams"
                    } else {
                        "it starts from freshly loaded state, no warm-up"
                    }
                )),
            ),
            (
                "rounds",
                Json::Str(format!("{} of {planned} planned", rounds.len())),
            ),
            ("latency_samples", Json::Int(samples as i64)),
            (
                "yardstick",
                Json::Str({
                    let steps: Vec<f64> = rounds.iter().map(|r| r.step_ns).collect();
                    format!(
                        "a step of the 4 MiB pointer chase took {:.1} to {:.1} ns over the rounds; every time of a round is multiplied by {} ns over the round's own reading",
                        steps.iter().copied().fold(f64::INFINITY, f64::min),
                        steps.iter().copied().fold(0.0, f64::max),
                        sys::REFERENCE_STEP_NS
                    )
                }),
            ),
        ]
    }
}

/// Every op latency of a run's rounds, pooled, in nanoseconds at the
/// reference step time (each scaled by its own round's yardstick reading).
#[derive(Default)]
struct Latencies {
    all: Vec<f64>,
    writes: Vec<f64>,
}

impl Latencies {
    /// Take a round's latencies. Only a traced run reads the spans
    /// themselves, so an untraced one drops them here.
    fn absorb(&mut self, round: &mut Round, keep_spans: bool) {
        let scale = round.at_reference();
        let scaled = |writes_only| {
            WorkerLog::latencies(&round.logs, writes_only).map(move |ns| ns as f64 * scale)
        };
        self.all.extend(scaled(false));
        self.writes.extend(scaled(true));
        if !keep_spans {
            round.logs = Vec::new();
        }
    }
}

/// The numbers a run of rounds reports about the workload itself, by metric
/// name: medians over the rounds, and latency percentiles over the exact
/// samples of all rounds pooled, every time quoted at the reference step
/// time. Which of them are end-to-end metrics and which per-layer is
/// `BENCHMARK.json`'s choice.
fn run_metrics(rounds: &[Round], mut lat: Latencies) -> Vec<(String, f64)> {
    let over = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    lat.all.sort_by(f64::total_cmp);
    lat.writes.sort_by(f64::total_cmp);
    let us = |sorted: &[f64], q: f64| percentile(sorted, q).map(|ns| ns / 1e3);
    [
        ("ops_per_s", over(|r| r.ops_per_s / r.at_reference())),
        ("p50_us", us(&lat.all, 0.50)),
        ("p99_us", us(&lat.all, 0.99)),
        // 0 on a stream without writes.
        ("write_p99_us", us(&lat.writes, 0.99).or(Some(0.0))),
        (
            "cpu_us_per_op",
            over(|r| r.cpu_us_per_op * r.at_reference()),
        ),
        // The first round's: a fresh process, one load, one round. Later
        // rounds find the allocator's arenas as earlier ones left them.
        ("peak_rss_mb", rounds.first().map(|r| r.peak_rss_mb)),
        ("space_amp", over(|r| r.space_amp)),
        ("setup_s", over(|r| r.setup_s * r.at_reference())),
        ("box.step_ns", over(|r| r.step_ns)),
    ]
    .into_iter()
    .filter_map(|(name, value)| Some((name.to_string(), value?)))
    .collect()
}

/// The end-to-end metrics, with observability off: `spec.rounds` rounds, cut
/// short only once they have measured for `--seconds`.
pub fn untraced(spec: &Spec, args: &Args) -> GdbResult<Report> {
    let runner = Runner::new(spec, args);
    let planned = if args.quick { 1 } else { spec.rounds };
    let (mut rounds, mut measured): (Vec<Round>, f64) = (Vec::new(), 0.0);
    let mut lat = Latencies::default();
    while (rounds.len() as u64) < planned && measured < args.seconds {
        let mut r = runner.round(rounds.len() as u64, false)?;
        measured += r.measured_s;
        lat.absorb(&mut r, false);
        rounds.push(r);
    }
    let mut violations: Vec<String> = rounds.iter().flat_map(|r| r.violations.clone()).collect();
    let samples = lat.all.len();
    let found = run_metrics(&rounds, lat);
    let mut values = Vec::new();
    for def in metrics::end_to_end() {
        match found.iter().find(|(n, v)| *n == def.name && *v > 0.0) {
            Some((_, value)) => values.push(Value { def, value: *value }),
            None => violations.push(format!("{}: {} could not be measured", spec.name, def.name)),
        }
    }
    Ok(Report {
        workload: spec.name,
        why: spec.why,
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        quick: args.quick,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        values,
        info: runner.info(&rounds.iter().collect::<Vec<_>>(), planned, samples),
        violations,
    })
}

/// The per-layer metrics: the workload run with and without the program's
/// phase spans, the ladder, and the direct-call probes.
pub fn traced(spec: &Spec, args: &Args) -> GdbResult<Report> {
    let runner = Runner::new(spec, args);
    // Each round's inputs run twice, plain and then traced, so both sides
    // see the same inputs and the same drift. A fifth of an untraced run's
    // rounds, which leaves the probes their time.
    let planned = if args.quick {
        1
    } else {
        (spec.rounds / 5).max(2)
    };
    let (mut plain, mut with_spans): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut lat = Latencies::default();
    let mut measured = 0.0;
    while (plain.len() as u64) < planned && measured < args.seconds {
        let index = plain.len() as u64;
        let mut off = runner.round(index, false)?;
        lat.absorb(&mut off, false);
        let on = runner.round(index, true)?;
        measured += off.measured_s + on.measured_s;
        plain.push(off);
        with_spans.push(on);
    }
    set_obs(false);
    let mut violations: Vec<String> = plain
        .iter()
        .chain(&with_spans)
        .flat_map(|r| r.violations.clone())
        .collect();
    // Two runs of one seed must agree with each other, not only with the
    // oracle.
    for (i, (a, b)) in plain.iter().zip(&with_spans).enumerate() {
        let pair = [
            a.observed(&format!("{} round {i}", spec.name)),
            b.observed(&format!("{} round {i} (traced)", spec.name)),
        ];
        violations.extend(gate::agree(&pair, runner.repeats_exactly()));
    }

    let probed = probe::ladder_and_layers(spec, args.seed, args.quick)?;
    violations.extend(probed.violations);
    let mut found: Vec<(String, f64)> = probed.metrics;
    // The workload's own numbers that `BENCHMARK.json` lists per layer, from
    // the plain rounds.
    let samples = lat.all.len();
    found.extend(run_metrics(&plain, lat));

    // workload: spans the decorator recorded around Session::execute.
    let trees: Vec<Vec<spans::Span>> = with_spans.iter().map(|r| spans::tree(&r.logs)).collect();
    let per_op = |name: &str, self_time: bool| -> Vec<f64> {
        trees
            .iter()
            .zip(&with_spans)
            .map(|(tree, r)| {
                let total: u64 = if self_time {
                    let by_name = spans::self_by_name(tree);
                    by_name.iter().find(|(n, _)| *n == name).map_or(0, |x| x.1)
                } else {
                    tree.iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.duration())
                        .sum()
                };
                total as f64 / r.ops.max(1) as f64
            })
            .collect()
    };
    let mid = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    found.push((
        "workload.driver_self_ns_op".into(),
        mid(per_op("worker", true)),
    ));
    found.push((
        "workload.session_ns_op".into(),
        mid(per_op("execute", false)),
    ));

    // obs: the program's own phase spans, from the traced rounds only.
    use gm_obs::Phase::*;
    for (name, phase) in [
        ("lock_wait", LockWait),
        ("engine_exec", EngineExec),
        ("snapshot_pin", SnapshotPin),
        ("clone_publish", ClonePublish),
        ("wire_encode", WireEncode),
        ("wire_io", WireIo),
    ] {
        let v = with_spans
            .iter()
            .map(|r| r.phases.get(phase) as f64 / r.ops.max(1) as f64)
            .collect();
        found.push((format!("obs.{name}_ns_op"), mid(v)));
    }
    // Pairwise, since a pair shares its inputs.
    let overhead = plain
        .iter()
        .zip(&with_spans)
        .map(|(off, on)| (off.ops_per_s - on.ops_per_s) / off.ops_per_s)
        .collect();
    found.push(("obs.trace_overhead_frac".into(), mid(overhead)));

    // run counts: the first round's, so exact for a fixed seed however many
    // rounds the run got to.
    let first = &with_spans[0];
    for (name, count) in [
        ("ops", first.ops),
        ("read_ops", first.read_ops),
        ("write_ops", first.ops - first.read_ops),
        ("errors", first.errors),
        ("txn_conflicts", first.txn_conflicts),
        ("cardinality_checksum", first.checksum),
    ] {
        found.push((format!("run.{name}"), count as f64));
    }

    let flags = probed.flags;
    for f in &flags {
        eprintln!("[{}] FLAG: {f}", spec.name);
    }
    let mut values = Vec::new();
    for def in metrics::per_layer() {
        match found.iter().find(|(n, _)| *n == def.name) {
            Some((_, value)) if value.is_finite() => values.push(Value { def, value: *value }),
            _ => violations.push(format!("{}: {} was not measured", spec.name, def.name)),
        }
    }
    let trace_path = format!("benchmark/out/trace-{}.json", spec.name);
    let doc = trace_document(spec, args, trees.last(), &probed.rungs, &flags);
    if let Err(e) = write_file(&trace_path, &doc.to_pretty_string()) {
        violations.push(format!("{}: cannot write {trace_path}: {e}", spec.name));
    }
    let both: Vec<&Round> = plain.iter().chain(&with_spans).collect();
    let mut info = runner.info(&both, 2 * planned, samples);
    info.push(("trace_file", Json::Str(trace_path)));
    info.push((
        "flags",
        Json::Arr(flags.into_iter().map(Json::Str).collect()),
    ));
    Ok(Report {
        workload: spec.name,
        why: spec.why,
        seed: args.seed,
        seconds: args.seconds,
        trace: true,
        quick: args.quick,
        attempted: both.iter().map(|r| r.attempted).sum(),
        failed: both.iter().map(|r| r.failed).sum(),
        values,
        info,
        violations,
    })
}

fn trace_document(
    spec: &Spec,
    args: &Args,
    tree: Option<&Vec<spans::Span>>,
    rungs: &[Observed],
    flags: &[String],
) -> Json {
    const SAMPLE: usize = 400;
    let empty = Vec::new();
    let tree = tree.unwrap_or(&empty);
    let own = spans::self_by_name(tree);
    let by_name = own
        .iter()
        .map(|(name, self_ns)| {
            let of_name = || tree.iter().filter(|s| s.name == *name);
            obj(vec![
                ("name", Json::Str(name.to_string())),
                ("count", Json::Int(of_name().count() as i64)),
                (
                    "total_ns",
                    Json::Int(of_name().map(|s| s.duration()).sum::<u64>() as i64),
                ),
                ("self_ns", Json::Int(*self_ns as i64)),
            ])
        })
        .collect();
    let sample = tree
        .iter()
        .take(SAMPLE)
        .map(|s| {
            obj(vec![
                ("name", Json::Str(s.name.into())),
                ("start", Json::Int(s.start as i64)),
                ("end", Json::Int(s.end as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("op", Json::Int(s.op as i64)),
            ])
        })
        .collect();
    let ladder = rungs
        .iter()
        .map(|o| {
            obj(vec![
                ("rung", Json::Str(o.what.clone())),
                ("attempted", Json::Int(o.attempted as i64)),
                ("failed", Json::Int(o.failed as i64)),
                ("cardinality_checksum", Json::Int(o.checksum as i64)),
                ("vertices", Json::Int(o.vertices as i64)),
                ("edges", Json::Int(o.edges as i64)),
            ])
        })
        .collect();
    obj(vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Int(args.seed as i64)),
        ("spans_in_last_traced_round", Json::Int(tree.len() as i64)),
        ("by_name", Json::Arr(by_name)),
        ("first_spans", Json::Arr(sample)),
        ("ladder", Json::Arr(ladder)),
        (
            "flags",
            Json::Arr(flags.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// Every workload, each in a process of its own, and the set document.
pub fn run_set(specs: &[Spec], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut runs = Vec::new();
    for spec in specs {
        let part = format!("benchmark/out/run-{}.json", spec.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--out", &part])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        // `status` waits for the child, so none outlives this process.
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("[{}] exited with {s}", spec.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("[{}] could not start: {e}", spec.name);
                ok = false;
            }
        }
        match std::fs::read_to_string(&part).map(|t| Json::parse(&t)) {
            Ok(Ok(doc)) => runs.push((spec.name.to_string(), doc)),
            _ => ok = false,
        }
    }
    let set = obj(vec![
        (
            "box",
            Json::Obj(
                sys::box_info()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("comparable", Json::Bool(!args.quick)),
        ("workloads", Json::Obj(runs)),
    ]);
    let path = args.out.as_deref().unwrap_or("benchmark/out/set.json");
    match write_file(path, &set.to_pretty_string()) {
        Ok(()) => println!("# set written to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
