//! Cross-**process** fleet test: four real `gm-server` processes (the
//! shipped binary, not in-process handles), one `Fleet` coordinator.
//!
//! This is the deployment the fleet feature exists for — separate OS
//! processes with separate address spaces — so the replay-equality
//! guarantee is asserted here too, against the in-process `ShardedGraph`
//! sequential replay.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use gm_model::testkit;
use gm_net::{Fleet, FleetBackend};
use gm_workload::{prepare, run_backend_sequential, HostBackend, MixKind, WorkloadConfig};
use graphmark::registry::EngineKind;

/// A spawned `gm-server` process, killed on drop so a failing assertion
/// never leaks servers.
struct ShardProc {
    child: Child,
    addr: String,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Launch one shard server on an ephemeral port and parse the bound
/// address from its startup banner
/// (`[gm-server] hosting … on 127.0.0.1:PORT — …`).
fn spawn_shard(engine: &str, shard: usize, fleet_size: usize) -> ShardProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gm-server"))
        .args([
            engine,
            "--shard-id",
            &shard.to_string(),
            "--fleet-size",
            &fleet_size.to_string(),
        ])
        .env("GM_SERVER_ADDR", "127.0.0.1:0")
        .env("GM_OBS", "off")
        .env("GM_STATS_INTERVAL_MS", "0")
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn gm-server");
    let stderr = child.stderr.take().expect("child stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("gm-server exited before its banner")
            .expect("read gm-server banner");
        if let Some(rest) = line.split(" on ").nth(1) {
            if line.contains("hosting") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("banner names a bound address")
                    .to_string();
            }
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    ShardProc { child, addr }
}

/// Acceptance criterion, cross-process edition: a 4-process fleet completes
/// the write-heavy mix with per-op results identical to the in-process
/// sharded replay, zero routing errors, fewer frames than ops on the run,
/// and a monotone fleet epoch.
#[test]
fn four_process_fleet_matches_in_process_sharded_replay() {
    const N: usize = 4;
    let kind = EngineKind::LinkedV2;
    let procs: Vec<ShardProc> = (0..N).map(|s| spawn_shard(kind.name(), s, N)).collect();
    let addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();

    let fleet = Fleet::connect(addrs).expect("connect 4-process fleet");
    assert_eq!(fleet.name(), "linked(v2)/f4");

    let data = testkit::chain_dataset(150);
    let c = WorkloadConfig {
        mix: MixKind::WriteHeavy,
        threads: 3,
        ops_per_worker: 40,
        seed: 99,
        record_cardinalities: true,
        ..WorkloadConfig::default()
    };

    let epoch_before = fleet.epoch().expect("fleet epoch");
    let trips_before = fleet.round_trips();
    let remote = fleet
        .setup(&data, &c)
        .and_then(|params| {
            let backend = FleetBackend::new(&fleet, &params, c.op_timeout);
            run_backend_sequential(&backend, &data.name, &c)
        })
        .expect("4-process fleet run");
    let window = fleet.round_trips() - trips_before;

    let graph = kind.make_sharded(N);
    let params = prepare(&graph, &data, c.seed).unwrap();
    let backend = HostBackend::new(&graph, &params, c.op_timeout);
    let local = run_backend_sequential(&backend, &data.name, &c).expect("local sharded replay");

    assert_eq!(
        remote.cardinality_trace(),
        local.cardinality_trace(),
        "4-process fleet results must match the in-process sharded replay op for op"
    );
    assert_eq!(remote.errors(), 0);
    assert_eq!(fleet.routing_errors(), 0, "zero routing errors");
    assert!(fleet.batched_ops() > 0, "dispatch must batch");

    // Frames < ops on the measured run: a second setup reproduces the
    // deterministic setup traffic, so the first run's own frame count is
    // the measured window minus one setup.
    let before_setup = fleet.round_trips();
    fleet.setup(&data, &c).expect("setup for frame measurement");
    let setup_frames = fleet.round_trips() - before_setup;
    let run_frames = window.saturating_sub(setup_frames);
    let total_ops = 3 * 40u64;
    assert!(
        run_frames < total_ops,
        "batched dispatch must spend fewer frames ({run_frames}) than ops ({total_ops})"
    );

    let epoch_after = fleet.epoch().expect("fleet epoch");
    assert!(epoch_after >= epoch_before, "fleet epoch must be monotone");
}
