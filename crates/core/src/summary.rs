//! Table 4 derivation: the ✓/⚠ evaluation summary.
//!
//! The paper condenses all experiments into a matrix of categories ×
//! engines where "✓ means that the system achieved the best or near-to-best
//! performance" and "⚠ means that the system performance was towards the
//! low end or indicated execution problems". We derive the same matrix
//! mechanically from a [`Report`]:
//!
//! * ✓ — median latency within [`GOOD_FACTOR`] of the per-query best and
//!   no non-completions in the group;
//! * ⚠ — any timeout/failure in the group, or median more than
//!   [`WARN_FACTOR`] × best;
//! * blank — in between.

use std::collections::BTreeMap;

use gm_model::format_nanos;

use crate::report::{Outcome, Report, RunMode};

/// Within this factor of the best = near-to-best (✓).
pub const GOOD_FACTOR: f64 = 3.0;
/// Beyond this factor of the best = low end (⚠).
pub const WARN_FACTOR: f64 = 25.0;

/// Table 4 column groups (the paper's header row).
pub const GROUPS: [(&str, &[&str]); 13] = [
    ("Load", &["Q1"]),
    ("Insertions", &["Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]),
    ("Graph Statistics", &["Q8", "Q9", "Q10"]),
    ("Search by Property/Label", &["Q11", "Q12", "Q13"]),
    ("Search by Id", &["Q14", "Q15"]),
    ("Updates", &["Q16", "Q17"]),
    ("Delete Node", &["Q18"]),
    ("Other Deletions", &["Q19", "Q20", "Q21"]),
    ("Neighbors", &["Q22", "Q23", "Q24"]),
    ("Node Edge-Labels", &["Q25", "Q26", "Q27"]),
    ("Degree Filter", &["Q28", "Q29", "Q30", "Q31"]),
    ("BFS", &["Q32", "Q33"]),
    ("Shortest Path", &["Q34", "Q35"]),
];

/// A cell of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// Best or near-to-best (✓).
    Good,
    /// Low end or execution problems (⚠).
    Warn,
    /// In between (blank in the paper).
    Mid,
    /// No data.
    NoData,
}

impl Cell {
    /// Render as the paper does.
    pub fn symbol(&self) -> &'static str {
        match self {
            Cell::Good => "✓",
            Cell::Warn => "⚠",
            Cell::Mid => " ",
            Cell::NoData => "·",
        }
    }
}

/// The derived Table 4.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Engine names (rows).
    pub engines: Vec<String>,
    /// Group names (columns).
    pub groups: Vec<String>,
    /// `cells[engine_idx][group_idx]`.
    pub cells: Vec<Vec<Cell>>,
}

/// Instance name → group query list match (`"Q32(d=3)"` belongs to `"Q32"`).
fn in_group(query: &str, group_queries: &[&str]) -> bool {
    let base = query.split('(').next().unwrap_or(query);
    group_queries.contains(&base)
}

/// Derive Table 4 from a report (isolation-mode rows).
pub fn derive(report: &Report) -> Summary {
    let mut engines: Vec<String> = report.rows.iter().map(|r| r.engine.clone()).collect();
    engines.sort();
    engines.dedup();

    let mut cells = vec![Vec::new(); engines.len()];
    for (group_name, group_queries) in GROUPS {
        let _ = group_name;
        // Collect per-engine medians over the group.
        let mut medians: BTreeMap<usize, f64> = BTreeMap::new();
        let mut dnf: Vec<bool> = vec![false; engines.len()];
        let mut any_data: Vec<bool> = vec![false; engines.len()];
        for (ei, engine) in engines.iter().enumerate() {
            let mut times: Vec<f64> = Vec::new();
            for r in &report.rows {
                if r.mode != RunMode::Isolation
                    || &r.engine != engine
                    || !in_group(&r.query, group_queries)
                {
                    continue;
                }
                any_data[ei] = true;
                match r.outcome {
                    Outcome::Completed => times.push(r.millis()),
                    _ => dnf[ei] = true,
                }
            }
            if !times.is_empty() {
                times.sort_by(|a, b| a.total_cmp(b));
                medians.insert(ei, times[times.len() / 2]);
            }
        }
        let best = medians
            .values()
            .fold(f64::INFINITY, |acc, &v| acc.min(v))
            .max(1e-6);
        for (ei, _) in engines.iter().enumerate() {
            let cell = if !any_data[ei] {
                Cell::NoData
            } else if dnf[ei] {
                Cell::Warn
            } else {
                match medians.get(&ei) {
                    Some(&m) if m <= best * GOOD_FACTOR => Cell::Good,
                    Some(&m) if m > best * WARN_FACTOR => Cell::Warn,
                    Some(_) => Cell::Mid,
                    None => Cell::NoData,
                }
            };
            cells[ei].push(cell);
        }
    }
    Summary {
        engines,
        groups: GROUPS.iter().map(|(n, _)| n.to_string()).collect(),
        cells,
    }
}

impl Summary {
    /// Render as a text table in the shape of Table 4.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<16}", "engine"));
        for g in &self.groups {
            let short: String = g.chars().take(12).collect();
            out.push_str(&format!(" | {short:>12}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(16 + self.groups.len() * 15));
        out.push('\n');
        for (ei, engine) in self.engines.iter().enumerate() {
            out.push_str(&format!("{engine:<16}"));
            for cell in &self.cells[ei] {
                out.push_str(&format!(" | {:>12}", cell.symbol()));
            }
            out.push('\n');
        }
        out
    }

    /// The cell for (engine, group name), if present.
    pub fn cell(&self, engine: &str, group: &str) -> Option<Cell> {
        let ei = self.engines.iter().position(|e| e == engine)?;
        let gi = self.groups.iter().position(|g| g == group)?;
        Some(self.cells[ei][gi])
    }
}

// ----- concurrency scalability report (Figure 8) ---------------------------

/// One (engine, mix, thread-count) cell of the concurrency sweep, produced
/// by the `gm-workload` driver and rendered next to the paper's figures.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Engine name.
    pub engine: String,
    /// Workload mix name (e.g. `"read-heavy"`).
    pub mix: String,
    /// Read-path isolation the run used: `"locked"` (shared `RwLock`),
    /// `"snapshot-cow"` or `"snapshot-sharded-cow"` (gm-mvcc pinned epochs), or
    /// `"remote"` (whatever the server hosts). The locked-vs-snapshot
    /// comparison in the `fig8` sweep keys on this column.
    pub isolation: String,
    /// Worker thread count.
    pub threads: u32,
    /// Operations completed.
    pub ops: u64,
    /// Completed operations that were **reads** (`ops - read_ops` were
    /// writes). The isolation comparison keys on read throughput: under a
    /// write-heavy mix total throughput is writer-bound in every mode, but
    /// snapshot reads never block behind writers, so reads/s keeps scaling
    /// where the locked read path flattens.
    pub read_ops: u64,
    /// Operations that returned an error (timeouts included).
    pub errors: u64,
    /// Operations shed by open-loop backpressure: their scheduled arrival
    /// fell further behind than the configured bound, so the driver dropped
    /// them instead of executing against an unbounded backlog.
    pub shed: u64,
    /// Reads whose serving epoch was **lower** than the epoch the same
    /// worker's previous read observed — counted once per drop (the worker
    /// adopts the restarted epoch regime afterwards, so one `Reset` is one
    /// skew event per worker, not one per remaining read). Always 0 for
    /// in-process snapshot runs (epochs are monotone per source); non-zero
    /// means the engine behind the reads was replaced mid-run — e.g. a
    /// remote `Reset` raced the workload — so correlated read errors are
    /// epoch skew, not engine bugs. Locked-mode runs carry no epochs and
    /// report 0.
    pub epoch_skew: u64,
    /// Write transactions whose commit lost first-committer-wins validation
    /// (`GdbError::TxnConflict`): the whole buffered write set was discarded
    /// and the session moved on. Only transactional sessions (the `fig11`
    /// sweep's `GM_TXN_OPS > 0`) produce these; a conflicted commit is
    /// *not* an op error — the ops executed, the commit lost a race — so it
    /// is counted here instead of in [`ScalingRow::errors`].
    pub txn_conflicts: u64,
    /// Total nanoseconds completed ops spent **waiting to acquire engine
    /// locks** (queueing, not hold time): the shared `RwLock`, MVCC cell
    /// mutexes, or `gm-shard`'s per-partition locks. The per-partition vs
    /// single-lock comparison (the `fig10` sweep) keys on this column — it
    /// is how "writers to different shards don't serialize" becomes a
    /// measured number instead of a claim.
    pub lock_wait_nanos: u64,
    /// Total nanoseconds completed ops spent **executing** against the
    /// engine (the `engine_exec` phase: query evaluation itself, excluding
    /// nested lock waits and snapshot machinery). Populated when the run
    /// was observed under `GM_OBS=phases`; 0 otherwise.
    pub engine_exec_nanos: u64,
    /// Total nanoseconds spent **pinning** MVCC snapshot epochs (the
    /// `snapshot_pin` phase). 0 for locked-mode runs and under `GM_OBS=off`.
    pub snapshot_pin_nanos: u64,
    /// Total nanoseconds spent **cloning/freezing** the live engine to
    /// publish an epoch (the `clone_publish` phase — the cost of
    /// copy-on-write isolation, paid by the writer that triggers it).
    pub clone_publish_nanos: u64,
    /// Total nanoseconds spent **serializing** request/response frames
    /// (the `wire_encode` phase; client-side for remote runs).
    pub wire_encode_nanos: u64,
    /// Total nanoseconds spent in **socket round trips** (the `wire_io`
    /// phase). For remote runs this is client-observed wire time minus the
    /// server-reported execution phases shipped back in `ExecDone`.
    pub wire_io_nanos: u64,
    /// Configured open-loop arrival rate (`None` for closed-loop runs, where
    /// the offered rate *is* the achieved rate by construction).
    pub offered_ops_per_sec: Option<f64>,
    /// Wall-clock duration of the whole run.
    pub wall_nanos: u64,
    /// Median per-op latency.
    pub p50_nanos: u64,
    /// 95th percentile per-op latency.
    pub p95_nanos: u64,
    /// 99th percentile per-op latency.
    pub p99_nanos: u64,
    /// Worst observed per-op latency.
    pub max_nanos: u64,
    /// Trace id of a flight-recorder-captured op from the p99 latency
    /// bucket's neighborhood (the p99's own histogram bucket, or the nearest
    /// bucket above it) — the handle that turns the aggregate p99 into one
    /// concrete retrievable trace record. 0 when tracing was off or no tail
    /// op was captured.
    pub p99_exemplar: u64,
}

impl ScalingRow {
    /// Completed operations per second over the wall clock (the *achieved*
    /// rate; compare against [`ScalingRow::offered_ops_per_sec`] to see how
    /// far an open-loop run fell short of its schedule).
    pub fn throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Completed **read** operations per wall-clock second.
    pub fn read_throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.read_ops as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Fraction of issued arrivals that were shed (0.0 when nothing was
    /// scheduled or nothing shed).
    pub fn shed_fraction(&self) -> f64 {
        let total = self.ops + self.errors + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    /// Mean lock wait per completed op, in nanoseconds (0 when no op
    /// completed).
    pub fn lock_wait_per_op(&self) -> u64 {
        self.lock_wait_nanos.checked_div(self.ops).unwrap_or(0)
    }

    /// Mean engine-execution time per completed op, in nanoseconds.
    pub fn exec_per_op(&self) -> u64 {
        self.engine_exec_nanos.checked_div(self.ops).unwrap_or(0)
    }

    /// Mean snapshot machinery time per completed op (pin + clone/publish),
    /// in nanoseconds.
    pub fn snapshot_per_op(&self) -> u64 {
        self.snapshot_pin_nanos
            .saturating_add(self.clone_publish_nanos)
            .checked_div(self.ops)
            .unwrap_or(0)
    }

    /// Mean wire time per completed op (encode + socket I/O), in
    /// nanoseconds. 0 for in-process runs.
    pub fn wire_per_op(&self) -> u64 {
        self.wire_encode_nanos
            .saturating_add(self.wire_io_nanos)
            .checked_div(self.ops)
            .unwrap_or(0)
    }

    /// Sum of every attributed phase (lock wait, engine exec, snapshot
    /// pin/clone, wire), in nanoseconds — at most the end-to-end latency
    /// sum, by self-time attribution.
    pub fn phase_total_nanos(&self) -> u64 {
        self.lock_wait_nanos
            .saturating_add(self.engine_exec_nanos)
            .saturating_add(self.snapshot_pin_nanos)
            .saturating_add(self.clone_publish_nanos)
            .saturating_add(self.wire_encode_nanos)
            .saturating_add(self.wire_io_nanos)
    }
}

/// One column of the scaling table: header, width (the first column is
/// left-aligned, the rest right-aligned), and the cell. The cell also gets
/// its (engine, mix, isolation) group's 1-thread closed-loop throughput —
/// the speedup baseline.
type TextColumn = (&'static str, usize, fn(&ScalingRow, Option<f64>) -> String);

/// The scaling table, left to right.
const TEXT_COLUMNS: &[TextColumn] = &[
    ("engine/mix@isolation", 36, |r, _| {
        format!("{}/{}@{}", r.engine, r.mix, r.isolation)
    }),
    ("threads", 7, |r, _| r.threads.to_string()),
    ("offered/s", 12, |r, _| {
        r.offered_ops_per_sec
            .map_or("-".into(), |x| format!("{x:.0}"))
    }),
    ("ops/s", 12, |r, _| format!("{:.0}", r.throughput())),
    ("reads/s", 12, |r, _| format!("{:.0}", r.read_throughput())),
    // Speedup is a closed-loop notion (throughput gained by adding
    // threads); open-loop rows are rate-limited by their schedule, so they
    // neither anchor the baseline nor get a speedup number.
    ("speedup", 8, |r, base| match base {
        Some(b) if b > 0.0 && r.offered_ops_per_sec.is_none() => {
            format!("{:.2}x", r.throughput() / b)
        }
        _ => "-".into(),
    }),
    ("p50", 10, |r, _| format_nanos(r.p50_nanos)),
    ("p95", 10, |r, _| format_nanos(r.p95_nanos)),
    ("p99", 10, |r, _| format_nanos(r.p99_nanos)),
    ("max", 10, |r, _| format_nanos(r.max_nanos)),
    ("lockw/op", 9, |r, _| format_nanos(r.lock_wait_per_op())),
    ("errors", 7, |r, _| r.errors.to_string()),
    ("shed", 7, |r, _| r.shed.to_string()),
    ("skew", 5, |r, _| r.epoch_skew.to_string()),
    ("txnc", 5, |r, _| r.txn_conflicts.to_string()),
    ("exec/op", 9, |r, _| format_nanos(r.exec_per_op())),
    ("snap/op", 9, |r, _| format_nanos(r.snapshot_per_op())),
    ("wire/op", 9, |r, _| format_nanos(r.wire_per_op())),
    ("p99_exemplar", 18, |r, _| match r.p99_exemplar {
        0 => "-".into(),
        id => format!("{id:#018x}"),
    }),
];

/// One CSV column: header and cell.
type CsvColumn = (&'static str, fn(&ScalingRow) -> String);

/// The CSV, left to right. New columns ride at the end (phases, then the
/// exemplar, then txn conflicts) so older consumers keyed on column
/// prefixes keep parsing.
const CSV_COLUMNS: &[CsvColumn] = &[
    ("engine", |r| r.engine.clone()),
    ("mix", |r| r.mix.clone()),
    ("isolation", |r| r.isolation.clone()),
    ("threads", |r| r.threads.to_string()),
    ("ops", |r| r.ops.to_string()),
    ("read_ops", |r| r.read_ops.to_string()),
    ("errors", |r| r.errors.to_string()),
    ("shed", |r| r.shed.to_string()),
    ("epoch_skew", |r| r.epoch_skew.to_string()),
    ("lock_wait_ms", |r| millis(r.lock_wait_nanos)),
    ("wall_millis", |r| millis(r.wall_nanos)),
    ("offered_ops_s", |r| {
        r.offered_ops_per_sec
            .map_or(String::new(), |x| format!("{x:.1}"))
    }),
    ("throughput_ops_s", |r| format!("{:.1}", r.throughput())),
    ("read_ops_s", |r| format!("{:.1}", r.read_throughput())),
    ("p50_us", |r| micros(r.p50_nanos)),
    ("p95_us", |r| micros(r.p95_nanos)),
    ("p99_us", |r| micros(r.p99_nanos)),
    ("max_us", |r| micros(r.max_nanos)),
    ("engine_exec_ms", |r| millis(r.engine_exec_nanos)),
    ("snapshot_pin_ms", |r| millis(r.snapshot_pin_nanos)),
    ("clone_publish_ms", |r| millis(r.clone_publish_nanos)),
    ("wire_encode_ms", |r| millis(r.wire_encode_nanos)),
    ("wire_io_ms", |r| millis(r.wire_io_nanos)),
    ("p99_exemplar", |r| match r.p99_exemplar {
        0 => String::new(),
        id => format!("{id:#x}"),
    }),
    ("txn_conflicts", |r| r.txn_conflicts.to_string()),
];

fn millis(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

fn micros(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e3)
}

/// One aligned line of the scaling table.
fn text_line(cells: impl Iterator<Item = String>) -> String {
    let mut line = String::new();
    for ((_, width, _), cell) in TEXT_COLUMNS.iter().zip(cells) {
        if line.is_empty() {
            line.push_str(&format!("{cell:<width$}"));
        } else {
            line.push_str(&format!(" {cell:>width$}"));
        }
    }
    line.push('\n');
    line
}

/// Render the concurrency sweep: one section per (engine, mix, isolation),
/// one line per thread count, with throughput, speedup over the 1-thread
/// line, and the latency tail. This is the text analogue of a scalability
/// figure; locked vs snapshot rows of the same (engine, mix) sit next to
/// each other so the isolation cost reads directly off the table.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut keys: Vec<(&str, &str, &str)> = rows
        .iter()
        .map(|r| (r.engine.as_str(), r.mix.as_str(), r.isolation.as_str()))
        .collect();
    keys.sort();
    keys.dedup();
    let mut out = text_line(TEXT_COLUMNS.iter().map(|(header, _, _)| header.to_string()));
    let width: usize = TEXT_COLUMNS.iter().map(|(_, w, _)| w + 1).sum();
    out.push_str(&"-".repeat(width - 1));
    out.push('\n');
    for (engine, mix, isolation) in keys {
        let mut group: Vec<&ScalingRow> = rows
            .iter()
            .filter(|r| r.engine == engine && r.mix == mix && r.isolation == isolation)
            .collect();
        group.sort_by_key(|r| r.threads);
        let base = group
            .iter()
            .find(|r| r.threads == 1 && r.offered_ops_per_sec.is_none())
            .map(|r| r.throughput());
        for r in group {
            out.push_str(&text_line(
                TEXT_COLUMNS.iter().map(|(_, _, cell)| cell(r, base)),
            ));
        }
    }
    out
}

/// Render the sweep as CSV (machine-readable companion).
pub fn scaling_to_csv(rows: &[ScalingRow]) -> String {
    let line = |cells: Vec<String>| cells.join(",") + "\n";
    let mut out = line(CSV_COLUMNS.iter().map(|(h, _)| h.to_string()).collect());
    for r in rows {
        out.push_str(&line(CSV_COLUMNS.iter().map(|(_, cell)| cell(r)).collect()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Measurement, Outcome, Report, RunMode};

    fn m(engine: &str, query: &str, outcome: Outcome, ms: f64) -> Measurement {
        Measurement {
            engine: engine.into(),
            dataset: "d".into(),
            query: query.into(),
            mode: RunMode::Isolation,
            outcome,
            nanos: (ms * 1e6) as u64,
            cardinality: None,
        }
    }

    #[test]
    fn fast_engine_gets_tick() {
        let mut rep = Report::default();
        rep.push(m("fast", "Q8", Outcome::Completed, 1.0));
        rep.push(m("slow", "Q8", Outcome::Completed, 100.0));
        rep.push(m("mid", "Q8", Outcome::Completed, 10.0));
        let s = derive(&rep);
        assert_eq!(s.cell("fast", "Graph Statistics"), Some(Cell::Good));
        assert_eq!(s.cell("slow", "Graph Statistics"), Some(Cell::Warn));
        assert_eq!(s.cell("mid", "Graph Statistics"), Some(Cell::Mid));
    }

    #[test]
    fn timeout_always_warns() {
        let mut rep = Report::default();
        rep.push(m("a", "Q9", Outcome::Completed, 1.0));
        rep.push(m("b", "Q9", Outcome::Timeout, 0.0));
        let s = derive(&rep);
        assert_eq!(s.cell("b", "Graph Statistics"), Some(Cell::Warn));
    }

    #[test]
    fn depth_instances_fold_into_bfs_group() {
        let mut rep = Report::default();
        rep.push(m("a", "Q32(d=2)", Outcome::Completed, 1.0));
        rep.push(m("a", "Q32(d=3)", Outcome::Completed, 2.0));
        rep.push(m("b", "Q32(d=2)", Outcome::Completed, 200.0));
        let s = derive(&rep);
        assert_eq!(s.cell("a", "BFS"), Some(Cell::Good));
        assert_eq!(s.cell("b", "BFS"), Some(Cell::Warn));
    }

    #[test]
    fn missing_data_marked() {
        let mut rep = Report::default();
        rep.push(m("a", "Q8", Outcome::Completed, 1.0));
        let s = derive(&rep);
        assert_eq!(s.cell("a", "Load"), Some(Cell::NoData));
    }

    #[test]
    fn render_contains_symbols() {
        let mut rep = Report::default();
        rep.push(m("a", "Q8", Outcome::Completed, 1.0));
        rep.push(m("b", "Q8", Outcome::Timeout, 0.0));
        let text = derive(&rep).render();
        assert!(text.contains('✓'));
        assert!(text.contains('⚠'));
        assert!(text.contains("engine"));
    }

    fn srow(engine: &str, threads: u32, ops: u64, wall_ms: u64) -> ScalingRow {
        ScalingRow {
            engine: engine.into(),
            mix: "mixed".into(),
            isolation: "locked".into(),
            threads,
            ops,
            read_ops: ops,
            errors: 0,
            shed: 0,
            epoch_skew: 0,
            txn_conflicts: 0,
            lock_wait_nanos: 0,
            engine_exec_nanos: 0,
            snapshot_pin_nanos: 0,
            clone_publish_nanos: 0,
            wire_encode_nanos: 0,
            wire_io_nanos: 0,
            offered_ops_per_sec: None,
            wall_nanos: wall_ms * 1_000_000,
            p50_nanos: 1_000,
            p95_nanos: 20_000,
            p99_nanos: 90_000,
            max_nanos: 15_000_000,
            p99_exemplar: 0,
        }
    }

    #[test]
    fn scaling_throughput_and_speedup() {
        let rows = vec![
            srow("linked(v1)", 1, 1_000, 100),
            srow("linked(v1)", 4, 3_000, 100),
        ];
        assert!((rows[0].throughput() - 10_000.0).abs() < 1e-6);
        let text = render_scaling(&rows);
        assert!(text.contains("linked(v1)/mixed@locked"), "{text}");
        assert!(
            text.contains("3.00x"),
            "4 threads at 3x throughput:\n{text}"
        );
        assert!(text.contains("1.0µs"), "p50 formatting:\n{text}");
        assert!(text.contains("20.0µs"), "p95 formatting:\n{text}");
        let csv = scaling_to_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("linked(v1),mixed,locked,1,1000,1000,0,0,0,0.000,100.000,,"));
    }

    #[test]
    fn scaling_reports_lock_wait() {
        let mut contended = srow("linked(v1)", 4, 1_000, 100);
        contended.lock_wait_nanos = 2_000_000; // 2 ms over 1000 ops = 2 µs/op
        assert_eq!(contended.lock_wait_per_op(), 2_000);
        let text = render_scaling(&[contended.clone()]);
        assert!(text.contains("lockw/op"), "{text}");
        assert!(text.contains("2.0µs"), "per-op lock wait rendered:\n{text}");
        let csv = scaling_to_csv(&[contended]);
        assert!(csv.contains(",lock_wait_ms,"), "{csv}");
        assert!(
            csv.contains("linked(v1),mixed,locked,4,1000,1000,0,0,0,2.000,100.000,,"),
            "{csv}"
        );
        // No completed ops: the per-op average degrades to zero, not a panic.
        let mut empty = srow("x", 1, 0, 1);
        empty.lock_wait_nanos = 5;
        assert_eq!(empty.lock_wait_per_op(), 0);
    }

    #[test]
    fn scaling_reports_phase_breakdown() {
        let mut row = srow("linked(v1)", 4, 1_000, 100);
        row.lock_wait_nanos = 1_000_000;
        row.engine_exec_nanos = 4_000_000; // 4 µs/op
        row.snapshot_pin_nanos = 1_000_000;
        row.clone_publish_nanos = 1_000_000; // pin+clone = 2 µs/op
        row.wire_encode_nanos = 2_000_000;
        row.wire_io_nanos = 1_000_000; // wire = 3 µs/op
        assert_eq!(row.exec_per_op(), 4_000);
        assert_eq!(row.snapshot_per_op(), 2_000);
        assert_eq!(row.wire_per_op(), 3_000);
        assert_eq!(row.phase_total_nanos(), 10_000_000);
        let text = render_scaling(&[row.clone()]);
        for col in ["exec/op", "snap/op", "wire/op"] {
            assert!(text.contains(col), "missing column {col}:\n{text}");
        }
        assert!(text.contains("4.0µs"), "exec/op rendered:\n{text}");
        assert!(text.contains("3.0µs"), "wire/op rendered:\n{text}");
        let csv = scaling_to_csv(&[row]);
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with(
                "engine_exec_ms,snapshot_pin_ms,clone_publish_ms,wire_encode_ms,wire_io_ms,p99_exemplar,txn_conflicts"
            ),
            "phase, exemplar, and txn columns ride at the end: {header}"
        );
        assert!(
            csv.lines()
                .nth(1)
                .unwrap()
                .ends_with("4.000,1.000,1.000,2.000,1.000,,0"),
            "{csv}"
        );
    }

    #[test]
    fn scaling_reports_p99_exemplar() {
        let mut traced = srow("linked(v1)", 4, 1_000, 100);
        traced.p99_exemplar = 0x1234_ABCD;
        let untraced = srow("linked(v1)", 1, 1_000, 100);
        let text = render_scaling(&[untraced.clone(), traced.clone()]);
        assert!(text.contains("p99_exemplar"), "{text}");
        assert!(
            text.contains("0x000000001234abcd"),
            "exemplar rendered as a full-width trace id:\n{text}"
        );
        // The untraced row renders a dash, not a zero id.
        assert!(
            text.lines()
                .any(|l| l.contains("mixed@locked") && l.trim_end().ends_with('-')),
            "untraced row ends in a dash:\n{text}"
        );
        let csv = scaling_to_csv(&[untraced, traced]);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",p99_exemplar,txn_conflicts"));
        assert!(csv.contains(",0x1234abcd,0\n"), "{csv}");
        // Untraced rows leave the exemplar column empty.
        assert!(csv.lines().nth(1).unwrap().ends_with("0.000,,0"), "{csv}");
    }

    #[test]
    fn scaling_reports_txn_conflicts() {
        let mut row = srow("linked(v1)", 4, 1_000, 100);
        row.isolation = "snapshot-cow+txn".into();
        row.txn_conflicts = 7;
        let text = render_scaling(&[row.clone()]);
        assert!(text.contains("txnc"), "{text}");
        assert!(text.contains("linked(v1)/mixed@snapshot-cow+txn"), "{text}");
        let csv = scaling_to_csv(&[row]);
        assert!(csv.lines().next().unwrap().ends_with(",txn_conflicts"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",7"), "{csv}");
    }

    #[test]
    fn scaling_groups_by_isolation_and_reports_skew() {
        let locked = srow("linked(v1)", 4, 2_000, 100);
        let mut snap = srow("linked(v1)", 4, 6_000, 100);
        snap.isolation = "snapshot-cow".into();
        snap.epoch_skew = 3;
        let text = render_scaling(&[locked.clone(), snap.clone()]);
        // Same engine/mix, two isolation sections — the comparison column.
        assert!(text.contains("linked(v1)/mixed@locked"), "{text}");
        assert!(text.contains("linked(v1)/mixed@snapshot-cow"), "{text}");
        assert!(text.contains("skew"), "{text}");
        let csv = scaling_to_csv(&[locked, snap]);
        assert!(
            csv.starts_with("engine,mix,isolation,threads,ops,read_ops,errors,shed,epoch_skew,")
        );
        assert!(
            csv.contains("linked(v1),mixed,snapshot-cow,4,6000,6000,0,0,3,"),
            "{csv}"
        );
    }

    #[test]
    fn scaling_reports_shed_and_offered_rate() {
        let mut over = srow("linked(v1)", 4, 800, 100);
        over.errors = 10;
        over.shed = 190;
        over.offered_ops_per_sec = Some(40_000.0);
        let rows = vec![srow("linked(v1)", 1, 1_000, 100), over];
        assert!((rows[1].shed_fraction() - 0.19).abs() < 1e-9);
        let text = render_scaling(&rows);
        assert!(text.contains("offered/s"), "{text}");
        assert!(text.contains("shed"), "{text}");
        assert!(text.contains("40000"), "offered rate rendered:\n{text}");
        assert!(text.contains("190"), "shed count rendered:\n{text}");
        // Speedup is a closed-loop notion: the open-loop row's speedup
        // column (5th) shows "-" even though a 1-thread baseline exists.
        let over_line = text
            .lines()
            .find(|l| l.contains("40000"))
            .expect("overload row rendered");
        let fields: Vec<&str> = over_line.split_whitespace().collect();
        assert_eq!(fields[5], "-", "open-loop rows get no speedup: {over_line}");
        let csv = scaling_to_csv(&rows);
        assert!(
            csv.starts_with(
                "engine,mix,isolation,threads,ops,read_ops,errors,shed,epoch_skew,lock_wait_ms,wall_millis,offered_ops_s,"
            ),
            "{csv}"
        );
        // Closed-loop rows leave the offered column empty; open-loop rows
        // carry rate and shed.
        assert!(
            csv.contains("linked(v1),mixed,locked,1,1000,1000,0,0,0,0.000,100.000,,"),
            "{csv}"
        );
        assert!(
            csv.contains("linked(v1),mixed,locked,4,800,800,10,190,0,0.000,100.000,40000.0,"),
            "{csv}"
        );
    }

    #[test]
    fn scaling_zero_wall_is_safe() {
        let mut r = srow("x", 1, 10, 0);
        r.wall_nanos = 0;
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn groups_cover_all_queries() {
        // Every Q2..Q35 falls in exactly one group.
        for q in 2..=35 {
            let name = format!("Q{q}");
            let hits = GROUPS
                .iter()
                .filter(|(_, qs)| qs.contains(&name.as_str()))
                .count();
            assert_eq!(hits, 1, "{name} must be in exactly one group");
        }
    }
}
