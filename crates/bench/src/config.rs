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
use graphmark::mvcc::SnapshotMode;
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

/// Every environment knob the harness binaries honour.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "GM_SCALE",
        default: "small",
        doc: "dataset scale preset (tiny/small/medium/a/b)",
    },
    Knob {
        name: "GM_SEED",
        default: "42",
        doc: "generator + workload seed",
    },
    Knob {
        name: "GM_TIMEOUT_SECS",
        default: "5",
        doc: "per-query deadline (the paper's 2h analog)",
    },
    Knob {
        name: "GM_BATCH",
        default: "10",
        doc: "batch length (the paper uses 10)",
    },
    Knob {
        name: "GM_ENGINES",
        default: "(all)",
        doc: "comma-separated engine-name filter",
    },
    Knob {
        name: "GM_THREADS",
        default: "1,2,4,8",
        doc: "fig8: thread counts to sweep",
    },
    Knob {
        name: "GM_MIXES",
        default: "read-heavy,mixed",
        doc: "fig8/fig9: workload mix names to sweep",
    },
    Knob {
        name: "GM_WL_OPS",
        default: "400",
        doc: "fig8/fig9: ops per worker",
    },
    Knob {
        name: "GM_OVERLOAD_FACTORS",
        default: "0.5,1,2,4",
        doc: "fig8: open-loop rates as multiples of measured capacity",
    },
    Knob {
        name: "GM_MAX_LATENESS_MS",
        default: "50",
        doc: "fig8/fig9: backlog bound; later arrivals are shed",
    },
    Knob {
        name: "GM_SNAPSHOT_MODE",
        default: "cow",
        doc: "fig8/fig10/gm-server: MVCC snapshot reads (off = locked only; cow = generic \
              copy-on-write; native = engine-native where available, cow fallback)",
    },
    Knob {
        name: "GM_SHARDS",
        default: "1,2,4",
        doc: "fig10: shard counts to sweep; gm-server: shard count to host (single value)",
    },
    Knob {
        name: "GM_SERVER_ADDR",
        default: "(spawn loopback)",
        doc: "fig9/gm-server: engine server address; fig9 spawns a loopback server per engine when unset",
    },
    Knob {
        name: "GM_FLEET",
        default: "0",
        doc: "fig10: spawn an N-process-equivalent loopback fleet (N shard servers, one per \
              identity) and run the @fleet rows against it (0 = off)",
    },
    Knob {
        name: "GM_FLEET_ADDRS",
        default: "(none)",
        doc: "fig10: comma-separated shard-server addresses, in shard order, of an \
              already-running fleet; overrides GM_FLEET (each server must announce the \
              matching --shard-id/--fleet-size identity)",
    },
    Knob {
        name: "GM_FLEET_BATCH",
        default: "16",
        doc: "fleet client: queued single-shard writes per connection before an ExecBatch \
              frame ships (reads flush their shard's queue first)",
    },
    Knob {
        name: "GM_NET_CLIENTS",
        default: "1,2,4",
        doc: "fig9: client-connection counts to sweep",
    },
    Knob {
        name: "GM_EXPORT_DIR",
        default: "./data",
        doc: "export_datasets: output directory (positional arg wins)",
    },
    Knob {
        name: "GM_OBS",
        default: "phases",
        doc: "observability mode (off = legacy lock-wait only; counters = gm-obs registry; \
              phases = counters + per-op phase spans in the fig8/fig9/fig10 tables and CSV)",
    },
    Knob {
        name: "GM_STATS_INTERVAL_MS",
        default: "0",
        doc: "gm-server: log a one-line registry stats snapshot every N ms (0 = off)",
    },
    Knob {
        name: "GM_TRACE",
        default: "tail",
        doc: "per-op trace flight recorder (off = record nothing, zero overhead; tail = \
              tail-biased retention via a moving latency threshold; all = record every op)",
    },
    Knob {
        name: "GM_TRACE_CAP",
        default: "4096",
        doc: "flight-recorder ring capacity in records (clamped to [16, 1M]; takes effect \
              before the first record)",
    },
    Knob {
        name: "GM_TRACE_DUMP",
        default: "(none)",
        doc: "base path to dump retained traces on exit (<base>.txt aligned table + \
              <base>.json Chrome trace_event)",
    },
    Knob {
        name: "GM_TXN_OPS",
        default: "8",
        doc: "fig11_transactions: writes buffered per transaction before commit \
              (0 = autocommit, no transactional rows)",
    },
    Knob {
        name: "GM_TXN_LOG_CAP",
        default: "1024",
        doc: "commit-log retention window for first-committer-wins validation; \
              transactions older than the window conflict conservatively",
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

/// A plain string knob.
pub fn var_str(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
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

/// The MVCC snapshot mode (`GM_SNAPSHOT_MODE`): `None` disables snapshot
/// runs (`"off"`), `Some(mode)` selects the implementation. Unset defaults
/// to `default` (the knob registry documents `"cow"` for fig8).
pub fn var_snapshot_mode(default: Option<SnapshotMode>) -> Option<SnapshotMode> {
    snapshot_mode_from(std::env::var("GM_SNAPSHOT_MODE").ok().as_deref(), default)
}

/// Pure parsing core of [`var_snapshot_mode`] (testable without mutating
/// the process environment, which other tests in this binary share).
fn snapshot_mode_from(value: Option<&str>, default: Option<SnapshotMode>) -> Option<SnapshotMode> {
    match value {
        None => default,
        Some(s) if s.trim() == "off" => None,
        Some(s) => match SnapshotMode::parse(s) {
            Some(mode) => Some(mode),
            None => {
                warn_ignored("GM_SNAPSHOT_MODE", s, "off/cow/native");
                default
            }
        },
    }
}

/// Apply the observability mode knob (`GM_OBS`) to the process-global
/// gm-obs state. Every harness binary calls this first thing in `main`,
/// before any metrics handle is resolved — handles cache the mode at
/// construction.
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
/// gm-obs trace state. Harness binaries call this right after
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
    fn snapshot_mode_knob() {
        // The pure core only: mutating the real GM_SNAPSHOT_MODE here would
        // race other tests in this process and break under
        // `GM_SNAPSHOT_MODE=… cargo test`.
        // Unset: the caller's default wins.
        assert_eq!(
            snapshot_mode_from(None, Some(SnapshotMode::Cow)),
            Some(SnapshotMode::Cow)
        );
        assert_eq!(snapshot_mode_from(None, None), None);
        // Set: "off" disables, names select, garbage warns + keeps default.
        assert_eq!(
            snapshot_mode_from(Some("off"), Some(SnapshotMode::Cow)),
            None
        );
        assert_eq!(
            snapshot_mode_from(Some("native"), Some(SnapshotMode::Cow)),
            Some(SnapshotMode::Native)
        );
        assert_eq!(
            snapshot_mode_from(Some("bogus"), Some(SnapshotMode::Cow)),
            Some(SnapshotMode::Cow)
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
            "GM_NET_CLIENTS",
            "GM_FLEET",
            "GM_FLEET_ADDRS",
            "GM_FLEET_BATCH",
            "GM_SNAPSHOT_MODE",
            "GM_OBS",
            "GM_STATS_INTERVAL_MS",
            "GM_TRACE",
            "GM_TRACE_CAP",
            "GM_TRACE_DUMP",
            "GM_TXN_OPS",
            "GM_TXN_LOG_CAP",
        ] {
            assert!(
                KNOBS.iter().any(|k| k.name == required),
                "{required} missing from KNOBS"
            );
        }
        let table = render_knobs();
        assert!(table.contains("GM_SERVER_ADDR"));
        assert!(table.contains("GM_NET_CLIENTS"));
    }
}
