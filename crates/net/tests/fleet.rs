//! Fleet integration tests over loopback: N in-process shard servers,
//! one `Fleet` coordinator, real sockets.
//!
//! The headline guarantee is cross-process replay equality: a write-heavy
//! workload driven through a 4-server fleet produces per-op results
//! identical to the in-process `ShardedGraph` sequential replay — while
//! spending **fewer wire round trips than ops** thanks to batched,
//! pipelined dispatch.

use std::collections::BTreeSet;
use std::time::Duration;

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::api::{Direction, GraphSnapshot};
use gm_model::{testkit, QueryCtx};
use gm_net::{Fleet, FleetBackend, Server, ServerHandle};
use gm_workload::{
    prepare, run_backend, run_backend_sequential, Backend, HostBackend, MixKind, Op, SharedEngine,
    WorkloadConfig, WriteOp,
};
use graphmark::registry::EngineKind;

/// Spawn `n` single-engine shard servers, each announcing its fleet
/// identity, and return (handles, address table).
fn spawn_fleet(kind: EngineKind, n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for s in 0..n {
        let handle = Server::bind("127.0.0.1:0", Box::new(move || kind.make()))
            .expect("bind shard server")
            .with_shard_identity(s as u32, n as u32)
            .spawn()
            .expect("spawn shard server");
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    (handles, addrs)
}

fn cfg(mix: MixKind, threads: u32, ops: u64) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        threads,
        ops_per_worker: ops,
        seed: 1234,
        record_cardinalities: true,
        ..WorkloadConfig::default()
    }
}

/// Acceptance criterion of the fleet PR: a 4-process fleet completes the
/// write-heavy mix with per-op results identical to the in-process sharded
/// replay, and batched dispatch spends fewer wire round trips than ops.
#[test]
fn fleet_write_heavy_matches_in_process_sharded_replay() {
    let data = testkit::chain_dataset(150);
    let kind = EngineKind::LinkedV2;
    let (handles, addrs) = spawn_fleet(kind, 4);

    let fleet = Fleet::connect(addrs).expect("connect fleet");
    assert_eq!(fleet.shard_count(), 4);
    assert_eq!(fleet.name(), "linked(v2)/f4");

    let c = cfg(MixKind::WriteHeavy, 3, 40);
    let epoch_before = fleet.epoch().expect("fleet epoch");
    let trips_before = fleet.round_trips();
    let remote = fleet
        .setup(&data, &c)
        .and_then(|params| {
            let backend = FleetBackend::new(&fleet, &params, c.op_timeout);
            run_backend_sequential(&backend, &data.name, &c)
        })
        .expect("fleet run");
    let measured_trips = fleet.round_trips() - trips_before;

    let graph = kind.make_sharded(4);
    let params = prepare(&graph, &data, c.seed).unwrap();
    let backend = HostBackend::new(&graph, &params, c.op_timeout);
    let local = run_backend_sequential(&backend, &data.name, &c).expect("local sharded replay");

    assert_eq!(
        remote.cardinality_trace(),
        local.cardinality_trace(),
        "fleet results must match the in-process sharded replay op for op"
    );
    assert_eq!(remote.errors(), 0, "no op errors across the fleet");
    assert_eq!(fleet.routing_errors(), 0, "no routing errors");
    assert!(
        fleet.batched_ops() > 0,
        "write-heavy dispatch must use ExecBatch frames"
    );
    // round_trips counts frames measured from Fleet::connect, and the
    // measured window still includes setup (load + meta probes + param
    // resolution); the run itself must stay under one frame per op, so the
    // whole window staying under ops + setup slack proves it a fortiori.
    let total_ops = 3 * 40u64;
    assert!(
        measured_trips > 0,
        "the frame counter must observe the run's traffic"
    );
    let run_trips = measured_trips.saturating_sub(setup_frames(&fleet, &data, &c));
    assert!(
        run_trips < total_ops,
        "batched dispatch must spend fewer wire round trips ({run_trips}) than ops ({total_ops})"
    );
    // The replay is sequential and seeded, so its frame count is exact: a
    // read carries its shard's queued writes in its own frame.
    assert_eq!(run_trips, 87, "wire round trips of the seeded replay");
    // Locked hosting is unversioned: the fleet epoch holds at 0, which is
    // still (trivially) monotone.
    let epoch_after = fleet.epoch().expect("fleet epoch");
    assert!(epoch_after >= epoch_before, "fleet epoch must be monotone");

    for h in handles {
        h.shutdown();
    }
}

/// Measure how many frames one `Fleet::setup` costs, so the test above can
/// subtract the setup traffic and gate the *run* alone.
fn setup_frames(fleet: &Fleet, data: &gm_model::Dataset, c: &WorkloadConfig) -> u64 {
    let before = fleet.round_trips();
    fleet.setup(data, c).expect("setup for frame measurement");
    fleet.round_trips() - before
}

/// The concurrent fleet driver completes cleanly too: per-worker
/// connections, all pacing machinery unchanged.
#[test]
fn fleet_concurrent_write_heavy_completes() {
    let data = testkit::chain_dataset(150);
    let (handles, addrs) = spawn_fleet(EngineKind::LinkedV2, 3);
    let fleet = Fleet::connect(addrs).expect("connect fleet");
    let c = cfg(MixKind::WriteHeavy, 4, 30);
    let report = fleet
        .setup(&data, &c)
        .and_then(|params| {
            let backend = FleetBackend::new(&fleet, &params, c.op_timeout);
            run_backend(&backend, &data.name, &c)
        })
        .expect("concurrent fleet run");
    assert_eq!(report.ops() + report.errors(), 4 * 30);
    assert_eq!(report.errors(), 0, "no op should fail over loopback");
    assert_eq!(fleet.routing_errors(), 0);
    assert_eq!(report.engine, "linked(v2)/f3");
    for h in handles {
        h.shutdown();
    }
}

/// The hang on record: setup over a 20-vertex chain used to spin forever
/// choosing 16 + 16 distinct victim edges out of 19. It returns, with
/// every chosen parameter resolved against the fleet.
#[test]
fn fleet_setup_over_a_tiny_dataset_returns() {
    let (handles, addrs) = spawn_fleet(EngineKind::LinkedV2, 2);
    let params = testkit::within(Duration::from_secs(30), move || {
        let fleet = Fleet::connect(addrs).expect("connect fleet");
        let c = cfg(MixKind::WriteHeavy, 1, 1);
        fleet.setup(&testkit::chain_dataset(20), &c)
    })
    .expect("setup over 20 vertices");
    assert_eq!(params.delete_edges.len(), 16);
    assert_eq!(params.edge_prop_victims.len(), 3);
    for h in handles {
        h.shutdown();
    }
}

/// Read-only fleet runs close the loop with the unsharded replay as well:
/// scatter-gather reads with ghost correction return exactly what one
/// engine would.
#[test]
fn fleet_read_only_matches_unsharded_replay() {
    let data = testkit::chain_dataset(150);
    let kind = EngineKind::ColumnarV10;
    let (handles, addrs) = spawn_fleet(kind, 4);
    let fleet = Fleet::connect(addrs).expect("connect fleet");
    let c = cfg(MixKind::ReadOnly, 3, 20);
    let remote = fleet
        .setup(&data, &c)
        .and_then(|params| {
            let backend = FleetBackend::new(&fleet, &params, c.op_timeout);
            run_backend_sequential(&backend, &data.name, &c)
        })
        .expect("fleet run");
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, c.seed).unwrap();
    let backend = HostBackend::new(&host, &params, c.op_timeout);
    let local = run_backend_sequential(&backend, &data.name, &c).expect("local replay");
    assert_eq!(
        remote.cardinality_trace(),
        local.cardinality_trace(),
        "ghost-corrected scatter-gather must match the single-engine replay"
    );
    assert_eq!(remote.errors(), 0);
    for h in handles {
        h.shutdown();
    }
}

/// Routing-table verification: dialing a server whose announced identity
/// does not match its position in the address table is refused at connect
/// time, before any op can be misrouted.
#[test]
fn fleet_refuses_a_miswired_address_table() {
    let (handles, mut addrs) = spawn_fleet(EngineKind::LinkedV1, 2);
    addrs.swap(0, 1); // shard 1's server now sits in slot 0
    match Fleet::connect(addrs) {
        Err(gm_model::GdbError::Invalid(why)) => {
            assert!(why.contains("shard identity"), "{why}");
        }
        Err(other) => panic!("a miswired fleet must fail with Invalid, got {other:?}"),
        Ok(_) => panic!("a miswired fleet must be refused"),
    }
    // A server with no identity at all is refused too.
    let plain = Server::bind("127.0.0.1:0", Box::new(|| EngineKind::LinkedV1.make()))
        .expect("bind")
        .spawn()
        .expect("spawn");
    match Fleet::connect(vec![plain.addr().to_string()]) {
        Err(gm_model::GdbError::Invalid(why)) => {
            assert!(why.contains("None"), "{why}");
        }
        Err(other) => panic!("an identity-less server must fail with Invalid, got {other:?}"),
        Ok(_) => panic!("an identity-less server must be refused"),
    }
    plain.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// Flush-on-touch is precise: a read ships the queued writes of exactly the
/// shards it needs — one for a point read, the presence set for an `in()`
/// gather, every cell for a whole-graph scan — in its own frames, one per
/// shard, while untouched shards keep batching, and what it touches always
/// includes the session's own earlier writes.
#[test]
fn reads_flush_exactly_the_shards_they_need() {
    const N: usize = 3;
    let data = testkit::chain_dataset(150);
    let kind = EngineKind::LinkedV2;
    let (handles, addrs) = spawn_fleet(kind, N);
    let fleet = Fleet::connect(addrs).expect("connect fleet");
    let c = cfg(MixKind::WriteHeavy, 1, 1);
    let params = fleet.setup(&data, &c).expect("setup");

    // Same engine, same partition: the in-process composite assigns the
    // same composite ids, so it predicts the anchor's presence set (its
    // owner plus the shards of its in-neighbours — edges live with their
    // source).
    let replica = kind.make_sharded(N);
    let local_params = prepare(&replica, &data, c.seed).expect("in-process replica");
    assert_eq!(local_params.vertex, params.vertex, "replica ids match");
    let mut presence: BTreeSet<usize> = replica
        .neighbors(params.vertex, Direction::In, None, &QueryCtx::unbounded())
        .expect("replica in-neighbours")
        .iter()
        .map(|u| u.0 as usize % N)
        .collect();
    presence.insert(params.vertex.0 as usize % N);

    let backend = FleetBackend::new(&fleet, &params, Duration::from_secs(5));
    let mut session = backend.open_session(0).expect("session");
    let mut op_index = 0u64;
    let mut run = |op: Op| {
        op_index += 1;
        session
            .execute(op, 0, op_index)
            .expect("fleet op")
            .cardinality
    };
    // `AddVertex` places round-robin from shard 0 after a setup, so N of
    // them queue exactly one write on every shard (under the batch cap).
    let queue_one_per_shard = |run: &mut dyn FnMut(Op) -> u64| {
        for _ in 0..N {
            run(Op::Write(WriteOp::AddVertex));
        }
    };
    let counters = || (fleet.batched_ops(), fleet.round_trips());
    let read = |id| Op::Read(QueryInstance::plain(id));

    queue_one_per_shard(&mut run);
    let (b0, t0) = counters();
    assert_eq!(run(read(QueryId::Q14)), 1, "point read of the anchor");
    let (b1, t1) = counters();
    assert_eq!(b1 - b0, 1, "a point read ships its own shard's queue only");
    assert_eq!(t1 - t0, 1, "the queued write rides in the read's frame");

    // The other N-1 queues are still batching; a whole-graph count ships
    // them all and sees every write this session made.
    assert_eq!(run(read(QueryId::Q8)), 150 + N as u64, "own writes visible");
    let (b2, t2) = counters();
    assert_eq!(b2 - b1, N as u64 - 1, "a scan ships every remaining cell");
    assert_eq!(t2 - t1, N as u64, "one frame per shard, queues included");

    queue_one_per_shard(&mut run);
    let before_gather = counters();
    run(read(QueryId::Q22));
    let after_gather = counters();
    assert_eq!(
        after_gather.0 - before_gather.0,
        presence.len() as u64,
        "an in() gather ships exactly its presence set {presence:?}"
    );
    assert_eq!(
        after_gather.1 - before_gather.1,
        presence.len() as u64,
        "one frame per presence shard, its queue included"
    );

    session.finish().expect("final flush");
    assert_eq!(
        fleet.batched_ops() - after_gather.0,
        (N - presence.len()) as u64,
        "the untouched shards batched until the session ended"
    );
    assert_eq!(fleet.routing_errors(), 0);
    for h in handles {
        h.shutdown();
    }
}
