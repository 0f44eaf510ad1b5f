//! Typed `GM_*` environment configuration — the single home for every knob.
//!
//! The harness binaries used to parse environment variables ad hoc, each
//! with its own defaults and error handling; this module centralizes the
//! parsing (with uniform "ignored invalid entry" warnings) and registers
//! every knob in [`KNOBS`] so `reproduce` can print an accurate table
//! and new knobs cannot silently drift undocumented.

use std::time::Duration;

use gm_datasets::Scale;
use gm_workload::MixKind;
use graphmark::registry::EngineKind;

/// One documented environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Variable name (`GM_…`).
    pub name: &'static str,
    /// Default value, as the user would type it.
    pub default: &'static str,
    /// What it does.
    pub doc: &'static str,
}

/// Every environment knob the harness binaries honour. Each `doc` opens with
/// the binaries that read the knob and the README section (or verify-skill
/// surface) that documents it; library crates read no knob (gm-check's
/// `knobs` lint).
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "GM_SCALE",
        default: "small",
        doc: "reproduce (README: Reproducing the paper's artifacts): dataset scale preset \
              (tiny/small/medium/a/b)",
    },
    Knob {
        name: "GM_SEED",
        default: "42",
        doc: "reproduce (README: Reproducing the paper's artifacts): generator + workload \
              seed",
    },
    Knob {
        name: "GM_TIMEOUT_SECS",
        default: "5",
        doc: "reproduce (README: Reproducing the paper's artifacts): per-query deadline \
              (the paper's 2h analog; fig1_timeouts and table4 count against it)",
    },
    Knob {
        name: "GM_BATCH",
        default: "10",
        doc: "reproduce (README: Reproducing the paper's artifacts): batch length (the \
              paper uses 10)",
    },
    Knob {
        name: "GM_ENGINES",
        default: "(all)",
        doc: "reproduce (README: Reproducing the paper's artifacts): comma-separated \
              engine-name filter",
    },
    Knob {
        name: "GM_THREADS",
        default: "(per sweep)",
        doc: "reproduce fig8-fig11 (README: The concurrency sweep): worker-thread (fig9: \
              client-connection) counts to sweep; fig8 1,2,4,8, fig9 1,2,4, fig10/fig11 2,4",
    },
    Knob {
        name: "GM_MIXES",
        default: "(per sweep)",
        doc: "reproduce fig8-fig11 (README: The concurrency sweep): workload mix names to \
              sweep; fig8/fig9 read-heavy,mixed, fig10/fig11 write-heavy,mixed",
    },
    Knob {
        name: "GM_WL_OPS",
        default: "400",
        doc: "reproduce fig8-fig11 (README: The concurrency sweep): ops per worker",
    },
    Knob {
        name: "GM_OVERLOAD_FACTORS",
        default: "(per sweep)",
        doc: "reproduce fig8, fig9 (README: Open-loop backpressure and shed accounting): \
              open-loop rates as multiples of measured capacity; fig8 0.5,1,2,4, fig9 1 \
              (empty = no open-loop rows)",
    },
    Knob {
        name: "GM_MAX_LATENESS_MS",
        default: "50",
        doc: "reproduce fig8, fig9 (README: Open-loop backpressure and shed accounting): \
              backlog bound; later arrivals are shed",
    },
    Knob {
        name: "GM_SNAPSHOT_MODE",
        default: "off",
        doc: "gm-server (README: Concurrency model): off = shared-lock hosting; cow = \
              reads pin copy-on-write MVCC epochs",
    },
    Knob {
        name: "GM_SHARDS",
        default: "(per sweep)",
        doc: "reproduce fig10, fig11 (README: Sharding): shard counts to sweep; fig10 \
              1,2,4, fig11 1,4; gm-server: shard count to host (single value)",
    },
    Knob {
        name: "GM_SERVER_ADDR",
        default: "(spawn loopback)",
        doc: "reproduce fig9, gm-server (README: Server mode): engine server address; \
              fig9's @net rows attach to it instead of spawning a loopback server per run, \
              and sweep only the engine it hosts",
    },
    Knob {
        name: "GM_FLEET_ADDRS",
        default: "(spawn loopback)",
        doc: "reproduce fig10 (README: Fleet mode): comma-separated shard-server \
              addresses, in shard order, of an already-running fleet; fig10's @fleet rows \
              attach to it instead of spawning loopback fleets, and sweep only the engine \
              it hosts (each server must announce the matching --shard-id/--fleet-size \
              identity)",
    },
    Knob {
        name: "GM_OBS",
        default: "phases",
        doc: "reproduce, gm-server (README: Observability): off = legacy lock-wait only; \
              counters = gm-obs registry; phases = counters + per-op phase spans in the \
              sweeps' tables and CSV",
    },
    Knob {
        name: "GM_STATS_INTERVAL_MS",
        default: "0",
        doc: "gm-server (README: Observability): log a one-line registry stats snapshot \
              every N ms (0 = off)",
    },
    Knob {
        name: "GM_TRACE",
        default: "tail",
        doc: "reproduce, gm-server (README: Tracing): per-op trace flight recorder (off = \
              record nothing, zero overhead; tail = tail-biased retention via a moving \
              latency threshold; all = record every op)",
    },
    Knob {
        name: "GM_TRACE_CAP",
        default: "4096",
        doc: "reproduce, gm-server (README: Tracing): flight-recorder ring capacity in \
              records (clamped to [16, 1M]; takes effect before the first record)",
    },
    Knob {
        name: "GM_TRACE_DUMP",
        default: "(none)",
        doc: "reproduce, gm-server (README: Tracing): base path to dump retained traces on \
              exit (<base>.txt aligned table + <base>.json Chrome trace_event)",
    },
    Knob {
        name: "GM_TXN_OPS",
        default: "8",
        doc: "reproduce fig11 (README: Transactions): writes buffered per transaction \
              before commit (0 = autocommit, no transactional rows)",
    },
];

/// Render the knob table (for `reproduce`'s header).
pub fn render_knobs() -> String {
    let mut out = String::from("environment knobs (see gm-bench::config):\n");
    for k in KNOBS {
        out.push_str(&format!(
            "  {:<22} default {:<18} {}\n",
            k.name, k.default, k.doc
        ));
    }
    out
}

fn warn_ignored(var: &str, entry: &str, want: &str) {
    eprintln!("[gm-bench] ignoring {var} entry {entry:?} (want {want})");
}

/// A `u64` knob.
pub fn var_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(s) => s.trim().parse().unwrap_or_else(|_| {
            warn_ignored(name, &s, "an unsigned integer");
            default
        }),
    }
}

/// A `u32` knob.
pub fn var_u32(name: &str, default: u32) -> u32 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(s) => s.trim().parse().unwrap_or_else(|_| {
            warn_ignored(name, &s, "an unsigned integer");
            default
        }),
    }
}

/// A duration knob given in whole seconds.
pub fn var_secs(name: &str, default_secs: u64) -> Duration {
    Duration::from_secs(var_u64(name, default_secs))
}

/// A duration knob given in whole milliseconds.
pub fn var_millis(name: &str, default_millis: u64) -> Duration {
    Duration::from_millis(var_u64(name, default_millis))
}

/// A comma-separated list of positive finite floats; invalid entries are
/// warned about and skipped, so a typo narrows the sweep instead of
/// silently replacing it with the default.
pub fn var_list_f64(name: &str, default: &str) -> Vec<f64> {
    std::env::var(name)
        .unwrap_or_else(|_| default.into())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| match s.trim().parse::<f64>() {
            Ok(f) if f > 0.0 && f.is_finite() => Some(f),
            _ => {
                warn_ignored(name, s, "a positive number");
                None
            }
        })
        .collect()
}

/// A comma-separated list of positive integers.
pub fn var_list_u32(name: &str, default: &str) -> Vec<u32> {
    std::env::var(name)
        .unwrap_or_else(|_| default.into())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| match s.trim().parse::<u32>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                warn_ignored(name, s, "a positive integer");
                None
            }
        })
        .collect()
}

/// A comma-separated list of workload mix names.
pub fn var_mixes(name: &str, default: &str) -> Vec<MixKind> {
    std::env::var(name)
        .unwrap_or_else(|_| default.into())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| {
            let kind = MixKind::parse(s.trim());
            if kind.is_none() {
                let known: Vec<&str> = MixKind::ALL.iter().map(|k| k.name()).collect();
                warn_ignored(name, s, &format!("one of {known:?}"));
            }
            kind
        })
        .collect()
}

/// The dataset scale preset (`GM_SCALE`).
pub fn var_scale() -> Scale {
    match std::env::var("GM_SCALE") {
        Err(_) => Scale::small(),
        Ok(s) => Scale::parse(&s).unwrap_or_else(|| {
            warn_ignored("GM_SCALE", &s, "tiny/small/medium/a/b");
            Scale::small()
        }),
    }
}

/// Apply the observability mode knob (`GM_OBS`) to the process-global
/// gm-obs state. `reproduce` calls this first in `main`, before any metrics
/// handle is resolved — handles cache the mode at construction.
pub fn apply_obs_mode() {
    gm_obs::set_mode(obs_mode_from(std::env::var("GM_OBS").ok().as_deref()));
}

/// Pure parsing core of [`apply_obs_mode`]: unset keeps the default
/// (`phases`); garbage warns and keeps the default.
fn obs_mode_from(value: Option<&str>) -> gm_obs::ObsMode {
    match value {
        None => gm_obs::ObsMode::Phases,
        Some(s) => gm_obs::ObsMode::parse(s).unwrap_or_else(|| {
            warn_ignored("GM_OBS", s, "off/counters/phases");
            gm_obs::ObsMode::Phases
        }),
    }
}

/// Apply the trace knobs (`GM_TRACE`, `GM_TRACE_CAP`) to the process-global
/// gm-obs trace state. `reproduce` calls this right after
/// [`apply_obs_mode`]: the capacity must land before the first record
/// allocates the ring, and the mode gates every `derive_id` call after it.
pub fn apply_trace_mode() {
    gm_obs::trace::set_capacity(var_u64("GM_TRACE_CAP", 4096) as usize);
    gm_obs::trace::set_mode(trace_mode_from(std::env::var("GM_TRACE").ok().as_deref()));
}

/// Pure parsing core of [`apply_trace_mode`]: unset keeps the default
/// (`tail`); garbage warns and keeps the default.
fn trace_mode_from(value: Option<&str>) -> gm_obs::TraceMode {
    match value {
        None => gm_obs::TraceMode::Tail,
        Some(s) => gm_obs::TraceMode::parse(s).unwrap_or_else(|| {
            warn_ignored("GM_TRACE", s, "off/tail/all");
            gm_obs::TraceMode::Tail
        }),
    }
}

/// The trace dump base path (`GM_TRACE_DUMP`): `None` when unset or blank.
/// Binaries that honour it write `<base>.txt` and `<base>.json` on exit via
/// `gm_obs::trace::dump_to`.
pub fn trace_dump_path() -> Option<String> {
    std::env::var("GM_TRACE_DUMP")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The sweep knobs, parsed once per process. An axis left `None` keeps the
/// running sweep's own default (a row of [`crate::sweeps::SWEEPS`]); a set
/// but empty list runs none of that axis.
#[derive(Debug, Clone)]
pub struct SweepKnobs {
    /// `GM_THREADS`: worker-thread (client-connection) counts.
    pub threads: Option<Vec<u32>>,
    /// `GM_MIXES`: workload mixes.
    pub mixes: Option<Vec<MixKind>>,
    /// `GM_SHARDS`: shard counts of the sharded stacks.
    pub shards: Option<Vec<u32>>,
    /// `GM_OVERLOAD_FACTORS`: open-loop rates as multiples of capacity.
    pub overload_factors: Option<Vec<f64>>,
    /// `GM_WL_OPS`: ops per worker.
    pub ops_per_worker: u64,
    /// `GM_MAX_LATENESS_MS`: open-loop backlog bound; later arrivals are shed.
    pub max_lateness: Duration,
    /// `GM_TXN_OPS`: writes per transaction on the transactional stack
    /// (0 = no transactional rows).
    pub txn_ops: u64,
    /// `GM_SERVER_ADDR`: a running server the `@net` rows attach to
    /// (`None` = spawn a loopback server per run).
    pub server_addr: Option<String>,
    /// `GM_FLEET_ADDRS`: a running fleet's shard servers, in shard order,
    /// the `@fleet` rows attach to (empty = spawn a loopback fleet per run).
    pub fleet_addrs: Vec<String>,
}

impl Default for SweepKnobs {
    fn default() -> Self {
        SweepKnobs {
            threads: None,
            mixes: None,
            shards: None,
            overload_factors: None,
            ops_per_worker: 400,
            max_lateness: Duration::from_millis(50),
            txn_ops: 8,
            server_addr: None,
            fleet_addrs: Vec::new(),
        }
    }
}

impl SweepKnobs {
    /// Read the sweep knobs from the environment.
    pub fn from_env() -> SweepKnobs {
        let d = SweepKnobs::default();
        let set = |name: &str| std::env::var_os(name).is_some();
        SweepKnobs {
            threads: set("GM_THREADS").then(|| var_list_u32("GM_THREADS", "")),
            mixes: set("GM_MIXES").then(|| var_mixes("GM_MIXES", "")),
            shards: set("GM_SHARDS").then(|| var_list_u32("GM_SHARDS", "")),
            overload_factors: set("GM_OVERLOAD_FACTORS")
                .then(|| var_list_f64("GM_OVERLOAD_FACTORS", "")),
            ops_per_worker: var_u64("GM_WL_OPS", d.ops_per_worker),
            max_lateness: var_millis("GM_MAX_LATENESS_MS", d.max_lateness.as_millis() as u64),
            txn_ops: var_u64("GM_TXN_OPS", d.txn_ops),
            server_addr: std::env::var("GM_SERVER_ADDR")
                .ok()
                .filter(|s| !s.trim().is_empty()),
            fleet_addrs: std::env::var("GM_FLEET_ADDRS")
                .unwrap_or_default()
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        }
    }
}

/// The engine filter (`GM_ENGINES`; unset = all variants).
pub fn var_engines() -> Vec<EngineKind> {
    match std::env::var("GM_ENGINES") {
        Ok(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .filter_map(|n| {
                let kind = EngineKind::parse(n.trim());
                if kind.is_none() {
                    let known: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
                    warn_ignored("GM_ENGINES", n, &format!("one of {known:?}"));
                }
                kind
            })
            .collect(),
        Err(_) => EngineKind::ALL.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests set process-global state; keep each test's variables
    // distinct so parallel execution cannot interfere.

    #[test]
    fn u64_default_and_parse() {
        assert_eq!(var_u64("GM_TEST_ABSENT_U64", 7), 7);
        std::env::set_var("GM_TEST_U64", "12");
        assert_eq!(var_u64("GM_TEST_U64", 7), 12);
        std::env::set_var("GM_TEST_U64_BAD", "nope");
        assert_eq!(var_u64("GM_TEST_U64_BAD", 7), 7);
    }

    #[test]
    fn lists_skip_invalid_entries() {
        std::env::set_var("GM_TEST_LIST_F64", "0.5, nope, 2, -1");
        assert_eq!(var_list_f64("GM_TEST_LIST_F64", "1"), vec![0.5, 2.0]);
        std::env::set_var("GM_TEST_LIST_U32", "1,0,x,4");
        assert_eq!(var_list_u32("GM_TEST_LIST_U32", "1"), vec![1, 4]);
        assert_eq!(var_list_u32("GM_TEST_LIST_ABSENT", "2,8"), vec![2, 8]);
    }

    #[test]
    fn mixes_parse_by_name() {
        std::env::set_var("GM_TEST_MIXES", "read-only, bogus ,mixed");
        assert_eq!(
            var_mixes("GM_TEST_MIXES", "read-heavy"),
            vec![MixKind::ReadOnly, MixKind::Mixed]
        );
        assert_eq!(
            var_mixes("GM_TEST_MIXES_ABSENT", "read-heavy,mixed"),
            vec![MixKind::ReadHeavy, MixKind::Mixed]
        );
    }

    #[test]
    fn obs_mode_knob() {
        use gm_obs::ObsMode;
        // Pure core only — the real GM_OBS is process-global state shared
        // with other tests.
        assert_eq!(obs_mode_from(None), ObsMode::Phases);
        assert_eq!(obs_mode_from(Some("off")), ObsMode::Off);
        assert_eq!(obs_mode_from(Some("counters")), ObsMode::Counters);
        assert_eq!(obs_mode_from(Some("phases")), ObsMode::Phases);
        assert_eq!(obs_mode_from(Some("bogus")), ObsMode::Phases);
    }

    #[test]
    fn trace_mode_knob() {
        use gm_obs::TraceMode;
        // Pure core only — the real GM_TRACE is process-global state shared
        // with other tests.
        assert_eq!(trace_mode_from(None), TraceMode::Tail);
        assert_eq!(trace_mode_from(Some("off")), TraceMode::Off);
        assert_eq!(trace_mode_from(Some("tail")), TraceMode::Tail);
        assert_eq!(trace_mode_from(Some("all")), TraceMode::All);
        assert_eq!(trace_mode_from(Some("bogus")), TraceMode::Tail);
    }

    #[test]
    fn knob_registry_covers_the_documented_set() {
        for required in [
            "GM_SCALE",
            "GM_SEED",
            "GM_ENGINES",
            "GM_SERVER_ADDR",
            "GM_FLEET_ADDRS",
            "GM_SNAPSHOT_MODE",
            "GM_OBS",
            "GM_STATS_INTERVAL_MS",
            "GM_TRACE",
            "GM_TRACE_CAP",
            "GM_TRACE_DUMP",
            "GM_TXN_OPS",
        ] {
            assert!(
                KNOBS.iter().any(|k| k.name == required),
                "{required} missing from KNOBS"
            );
        }
        let table = render_knobs();
        assert!(table.contains("GM_SERVER_ADDR"));
    }

    /// Every `.rs` file under `dir` (none when it does not exist).
    fn rs_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// The `"GM_…"` literals of `src` outside its `#[cfg(test)]` items and
    /// comments, skipping the registry's own `name:` fields.
    fn knob_literals(src: &str, out: &mut std::collections::BTreeSet<String>) {
        let mut test_depth: Option<i64> = None;
        for line in src.lines() {
            if let Some(depth) = &mut test_depth {
                *depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
                if *depth <= 0 && line.contains('}') {
                    test_depth = None;
                }
                continue;
            }
            if line.trim() == "#[cfg(test)]" {
                test_depth = Some(0);
                continue;
            }
            let code = line.split("//").next().unwrap_or_default();
            if code.trim_start().starts_with("name: ") {
                continue;
            }
            for (at, _) in code.match_indices("\"GM_") {
                let name: String = code[at + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                if code[at + 1 + name.len()..].starts_with('"') {
                    out.insert(name);
                }
            }
        }
    }

    #[test]
    fn knob_registry_is_exact() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        rs_files(&root.join("crates/bench/src"), &mut files);
        rs_files(&root.join("examples"), &mut files);
        for krate in std::fs::read_dir(root.join("crates")).unwrap() {
            let dir = krate.unwrap().path();
            rs_files(&dir.join("src/bin"), &mut files);
            rs_files(&dir.join("examples"), &mut files);
        }
        files.sort();
        files.dedup();
        let mut read = std::collections::BTreeSet::new();
        for f in &files {
            knob_literals(&std::fs::read_to_string(f).unwrap(), &mut read);
        }
        let registered: std::collections::BTreeSet<String> =
            KNOBS.iter().map(|k| k.name.to_string()).collect();
        assert_eq!(
            read, registered,
            "the GM_* knobs read (left) and KNOBS (right) differ"
        );
    }
}
