//! `gm-server` — host a graphmark engine behind a TCP socket.
//!
//! ```sh
//! # host the default engine on the default address
//! cargo run --release -p gm-net --bin gm-server
//!
//! # pick engine and address (engine names as in `GM_ENGINES`)
//! GM_SERVER_ADDR=127.0.0.1:7687 cargo run --release -p gm-net --bin gm-server -- 'linked(v2)'
//!
//! # serve reads from pinned MVCC snapshots instead of the shared lock
//! GM_SNAPSHOT_MODE=cow cargo run --release -p gm-net --bin gm-server -- 'columnar(v10)'
//! ```
//!
//! The server hosts **one** engine instance. Clients drive it with the
//! gm-net protocol: `RemoteEngine::connect` for trait-level access, or a
//! `RemoteBackend` (`RemoteBackend::setup` resets, loads and prepares the
//! engine) / the `fig9_network` bench binary for whole workloads. The
//! process runs until killed.
//!
//! With `GM_SNAPSHOT_MODE=cow` (generic copy-on-write) or `native` (the
//! columnar engine's segment-sharing freeze path, `cow` fallback
//! elsewhere), every read request executes against a pinned epoch — remote
//! scans never block remote writers — and `ExecOp` responses carry the
//! serving epoch. Unset or `off` keeps the original shared-`RwLock`
//! hosting.
//!
//! With `GM_SHARDS=N` (N > 1) the server hosts a hash-partitioned
//! `gm-shard` composite of N engines instead of a single instance — one
//! server, many shards. In locked mode the composite's per-partition locks
//! are the only synchronization on the op path (concurrent remote writers
//! on different shards do not serialize); in snapshot mode each shard gets
//! its own MVCC cell and reads pin composite epochs.

use std::time::{Duration, Instant};

use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::workload::SharedEngine;

use gm_net::{HostFactory, Server};
use gm_obs::{trace, ObsMode, RegistrySnapshot};

/// One line of live server stats: interval throughput and p99 from the
/// `net.*` metrics, snapshot-GC pressure from the `mvcc.*` gauges, and
/// shard balance (max/min interval ops across `shard.{i}.ops`).
fn stats_line(prev: &RegistrySnapshot, cur: &RegistrySnapshot, dt: f64) -> String {
    let ops = cur
        .counter("net.ops")
        .saturating_sub(prev.counter("net.ops"));
    // Interval p99: the cumulative histogram counters are monotone, so the
    // element-wise delta is the interval's own histogram.
    let p99 = match cur.hist("net.op_nanos") {
        None => 0,
        Some(h) => {
            let mut d = h.clone();
            if let Some(p) = prev.hist("net.op_nanos") {
                for (a, b) in d.counts.iter_mut().zip(p.counts.iter()) {
                    *a -= b;
                }
                d.count -= p.count;
                d.sum = d.sum.saturating_sub(p.sum);
            }
            d.p99()
        }
    };
    let mut line = format!(
        "ops/s {:.0}  p99 {:.1}ms",
        ops as f64 / dt,
        p99 as f64 / 1e6
    );
    for kind in ["cow", "native"] {
        let retained = cur.gauge(&format!("mvcc.{kind}.retained_epochs"));
        if retained > 0 {
            line.push_str(&format!(
                "  {kind}: {retained} epochs pinned, oldest {:.1}ms",
                cur.gauge(&format!("mvcc.{kind}.oldest_pin_age_us")) as f64 / 1e3
            ));
        }
    }
    let mut per_shard: Vec<u64> = cur
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("shard.") && n.ends_with(".ops"))
        .map(|(n, v)| v.saturating_sub(prev.counter(n)))
        .collect();
    if per_shard.len() > 1 {
        per_shard.sort_unstable();
        line.push_str(&format!(
            "  shards: min/max ops {}/{}",
            per_shard.first().unwrap(),
            per_shard.last().unwrap()
        ));
    }
    line
}

/// Summarize snapshot-GC state for the shutdown banner.
fn gc_summary(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for kind in ["cow", "native"] {
        let pins = snap.counter(&format!("mvcc.{kind}.pins"));
        if pins == 0 {
            continue;
        }
        out.push_str(&format!(
            "\n[gm-server]   {kind}: {pins} pins ({} stale), {} publishes, \
             {} epochs / {} bytes still retained by live pins",
            snap.counter(&format!("mvcc.{kind}.stale_pins")),
            snap.counter(&format!("mvcc.{kind}.publishes")),
            snap.gauge(&format!("mvcc.{kind}.retained_epochs")),
            snap.gauge(&format!("mvcc.{kind}.retained_bytes")),
        ));
    }
    let pages = snap.counter("storage.cow.pages_copied");
    if pages > 0 {
        out.push_str(&format!(
            "\n[gm-server]   storage: {pages} pages / {} bytes copied on write",
            snap.counter("storage.cow.bytes_copied"),
        ));
    }
    let lsm = |name: &str| snap.counter(&format!("storage.lsm.{name}"));
    if lsm("runs_probed") + lsm("flushes") > 0 {
        out.push_str(&format!(
            "\n[gm-server]   lsm: {} cells scanned, {} runs probed, {} scans ({} merged), \
             {} flushes, {} compactions",
            lsm("cells_scanned"),
            lsm("runs_probed"),
            lsm("scans"),
            lsm("merged_scans"),
            lsm("flushes"),
            lsm("compactions"),
        ));
    }
    out
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: gm-server [engine-name] [--shard-id N --fleet-size N]");
        eprintln!("  engine-name: one of:");
        for kind in EngineKind::ALL {
            eprintln!("    {:<15} ({})", kind.name(), kind.emulates());
        }
        eprintln!("  --shard-id N --fleet-size N: announce a fleet shard identity in the");
        eprintln!("       HelloAck so a gm-net Fleet coordinator can verify its routing");
        eprintln!("       table (both flags required together; id < size)");
        eprintln!("  env: GM_SERVER_ADDR (default 127.0.0.1:7687)");
        eprintln!("       GM_SNAPSHOT_MODE (off|cow|native; default off = shared lock)");
        eprintln!("       GM_SHARDS (default 1; >1 hosts a gm-shard composite)");
        eprintln!("       GM_OBS (off|counters|phases; default phases)");
        eprintln!("       GM_STATS_INTERVAL_MS (default 0 = no periodic stats line)");
        eprintln!("       GM_TRACE (off|tail|all; default tail = tail-biased flight recorder)");
        eprintln!("       GM_TRACE_CAP (flight-recorder capacity, default 4096)");
        eprintln!("       GM_TRACE_DUMP (path base: dump <base>.txt/<base>.json on shutdown)");
        std::process::exit(0);
    }

    // Split flags from the positional engine name. `--shard-id`/`--fleet-size`
    // declare this process one shard of a fleet; the identity is echoed in
    // every HelloAck so the coordinator can catch a miswired address table.
    let mut args: Vec<String> = Vec::new();
    let mut shard_id: Option<u32> = None;
    let mut fleet_size: Option<u32> = None;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--shard-id" => &mut shard_id,
            "--fleet-size" => &mut fleet_size,
            _ => {
                args.push(a);
                continue;
            }
        };
        *slot = match it.next().map(|v| v.trim().parse::<u32>()) {
            Some(Ok(n)) => Some(n),
            _ => {
                eprintln!("[gm-server] {a} wants a small integer argument");
                std::process::exit(2);
            }
        };
    }
    let fleet = match (shard_id, fleet_size) {
        (None, None) => None,
        (Some(id), Some(size)) if id < size => Some((id, size)),
        (Some(id), Some(size)) => {
            eprintln!("[gm-server] --shard-id {id} must be < --fleet-size {size}");
            std::process::exit(2);
        }
        _ => {
            eprintln!("[gm-server] --shard-id and --fleet-size must be given together");
            std::process::exit(2);
        }
    };

    if let Ok(s) = std::env::var("GM_OBS") {
        match ObsMode::parse(&s) {
            Some(mode) => gm_obs::set_mode(mode),
            None => {
                eprintln!("[gm-server] unknown GM_OBS {s:?} (want off|counters|phases)");
                std::process::exit(2);
            }
        }
    }

    // gm-net must not depend on gm-bench, so the trace knobs are parsed
    // here directly (same names, same defaults as `gm_bench::config`).
    if let Ok(s) = std::env::var("GM_TRACE_CAP") {
        match s.trim().parse::<usize>() {
            Ok(cap) => trace::set_capacity(cap),
            Err(_) => {
                eprintln!("[gm-server] invalid GM_TRACE_CAP {s:?} (want a record count)");
                std::process::exit(2);
            }
        }
    }
    if let Ok(s) = std::env::var("GM_TRACE") {
        match trace::TraceMode::parse(&s) {
            Some(mode) => trace::set_mode(mode),
            None => {
                eprintln!("[gm-server] unknown GM_TRACE {s:?} (want off|tail|all)");
                std::process::exit(2);
            }
        }
    }

    let stats_interval: u64 = match std::env::var("GM_STATS_INTERVAL_MS") {
        Err(_) => 0,
        Ok(s) => match s.trim().parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("[gm-server] invalid GM_STATS_INTERVAL_MS {s:?} (want milliseconds)");
                std::process::exit(2);
            }
        },
    };

    let kind = match args.first() {
        None => EngineKind::LinkedV2,
        Some(name) => match EngineKind::parse(name) {
            Some(kind) => kind,
            None => {
                let known: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
                eprintln!("[gm-server] unknown engine {name:?} (known: {known:?})");
                std::process::exit(2);
            }
        },
    };

    let mode = match std::env::var("GM_SNAPSHOT_MODE") {
        Err(_) => None,
        Ok(s) if s.trim() == "off" || s.trim().is_empty() => None,
        Ok(s) => match SnapshotMode::parse(&s) {
            Some(mode) => Some(mode),
            None => {
                eprintln!("[gm-server] unknown GM_SNAPSHOT_MODE {s:?} (want off|cow|native)");
                std::process::exit(2);
            }
        },
    };

    let shards: usize = match std::env::var("GM_SHARDS") {
        Err(_) => 1,
        Ok(s) => match s.trim().parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("[gm-server] invalid GM_SHARDS {s:?} (want a positive integer)");
                std::process::exit(2);
            }
        },
    };

    let addr = std::env::var("GM_SERVER_ADDR").unwrap_or_else(|_| "127.0.0.1:7687".to_string());
    let factory: HostFactory = match (mode, shards) {
        (None, 1) => Box::new(move || Box::new(SharedEngine::new(kind.make()))),
        (None, n) => Box::new(move || Box::new(kind.make_sharded(n))),
        (Some(mode), 1) => Box::new(move || Box::new(kind.make_snapshot_source(mode))),
        (Some(mode), n) => Box::new(move || {
            Box::new(Box::new(kind.make_sharded_source(n, mode)) as Box<dyn SnapshotSource>)
        }),
    };
    // The banner reports the bound host's *actual* isolation: `native`
    // falls back to the generic cow cell for engines without a native path,
    // and the banner must not claim a freeze path the operator is not
    // measuring.
    let bound =
        Server::bind_host(&addr, factory).and_then(|server| Ok((server.isolation()?, server)));
    let (isolation, server) = match bound {
        Ok((isolation, server)) => match fleet {
            Some((id, size)) => (isolation, server.with_shard_identity(id, size)),
            None => (isolation, server),
        },
        Err(e) => {
            eprintln!("[gm-server] {e}");
            std::process::exit(1);
        }
    };
    let mut hosted = if shards == 1 {
        kind.name().to_string()
    } else {
        format!("{}/s{shards}", kind.name())
    };
    if let Some((id, size)) = fleet {
        hosted.push_str(&format!(" [shard {id}/{size}]"));
    }
    match server.local_addr() {
        Ok(bound) => eprintln!(
            "[gm-server] hosting {hosted} ({}) on {bound} — protocol v{}, {isolation} reads, \
             obs {}, trace {}",
            kind.emulates(),
            gm_net::PROTO_VERSION,
            gm_obs::mode().name(),
            trace::mode().name()
        ),
        Err(e) => eprintln!("[gm-server] hosting {hosted} ({e})"),
    }

    if stats_interval > 0 {
        if gm_obs::counters_on() {
            let interval = Duration::from_millis(stats_interval);
            std::thread::spawn(move || {
                let mut prev = gm_obs::global().snapshot();
                let mut prev_at = Instant::now();
                loop {
                    std::thread::sleep(interval);
                    let cur = gm_obs::global().snapshot();
                    let dt = prev_at.elapsed().as_secs_f64().max(1e-9);
                    eprintln!("[gm-server] {}", stats_line(&prev, &cur, dt));
                    prev = cur;
                    prev_at = Instant::now();
                }
            });
        } else {
            eprintln!("[gm-server] GM_STATS_INTERVAL_MS set but GM_OBS=off: no stats to log");
        }
    }

    server.run();

    // Graceful shutdown (stop flag tripped): dump the flight recorder if
    // asked, then leave a final accounting of what the registry saw.
    if let Ok(base) = std::env::var("GM_TRACE_DUMP") {
        let base = base.trim();
        if !base.is_empty() {
            match trace::dump_to(base, &trace::global_ring().snapshot()) {
                Ok(()) => eprintln!("[gm-server] traces dumped to {base}.txt and {base}.json"),
                Err(e) => eprintln!("[gm-server] GM_TRACE_DUMP to {base} failed: {e}"),
            }
        }
    }
    let snap = gm_obs::global().snapshot();
    if !snap.is_empty() {
        eprintln!(
            "[gm-server] final: {} ops served{}",
            snap.counter("net.ops"),
            gc_summary(&snap)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_accounting_names_the_substrate_counters_that_moved() {
        let registry = gm_obs::Registry::new();
        assert_eq!(gc_summary(&registry.snapshot()), "");
        registry.counter("storage.lsm.cells_scanned").add(630);
        registry.counter("storage.lsm.runs_probed").add(9);
        registry.counter("storage.lsm.scans").add(3);
        registry.counter("storage.lsm.merged_scans").add(1);
        registry.counter("storage.lsm.flushes").add(2);
        let summary = gc_summary(&registry.snapshot());
        assert_eq!(
            summary,
            "\n[gm-server]   lsm: 630 cells scanned, 9 runs probed, 3 scans (1 merged), \
             2 flushes, 0 compactions"
        );
        registry.counter("storage.cow.pages_copied").add(4);
        let summary = gc_summary(&registry.snapshot());
        assert!(summary.contains("storage: 4 pages") && summary.contains("lsm: 630 cells"));
    }
}
