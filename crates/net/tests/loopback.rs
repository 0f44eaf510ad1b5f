//! Loopback integration tests: a real server on `127.0.0.1`, real client
//! connections, every engine variant.
//!
//! The headline guarantee is the cross-engine determinism contract: a
//! read-only workload driven through the wire produces per-op results
//! identical to the in-process sequential replay, op for op.

use std::net::TcpStream;
use std::time::Duration;

use gm_core::catalog::{QueryId, QueryInstance};
use gm_core::params::Workload;
use gm_core::report::{Outcome, RunMode};
use gm_core::runner::{BenchConfig, Runner};
use gm_model::api::LoadOptions;
use gm_model::{testkit, GdbError, GraphDb, GraphSnapshot, QueryCtx, Vid};
use gm_net::wire;
use gm_net::{
    Connection, RemoteBackend, RemoteEngine, Request, Response, Server, ServerHandle, MAGIC,
    PROTO_VERSION,
};
use gm_workload::{
    prepare, run_backend, run_backend_sequential, HostBackend, MixKind, Pacing, SharedEngine,
    WorkloadConfig,
};
use graphmark::registry::EngineKind;

fn spawn_server(kind: EngineKind) -> ServerHandle {
    Server::bind("127.0.0.1:0", Box::new(move || kind.make()))
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
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

/// Acceptance criterion: a read-only workload driven through the wire
/// produces per-op results identical to the in-process sequential replay on
/// every engine variant.
#[test]
fn remote_read_only_matches_in_process_sequential_on_every_engine() {
    let data = testkit::chain_dataset(150);
    for kind in EngineKind::ALL {
        let server = spawn_server(kind);
        let addr = server.addr().to_string();
        let c = cfg(MixKind::ReadOnly, 3, 20);
        let remote = RemoteBackend::setup(&addr, &data, &c)
            .and_then(|b| run_backend(&b, &data.name, &c))
            .unwrap_or_else(|e| panic!("{}: remote run failed: {e}", kind.name()));
        let host = SharedEngine::new(kind.make());
        let params = prepare(&host, &data, c.seed).unwrap();
        let local = run_backend_sequential(
            &HostBackend::new(&host, &params, c.op_timeout),
            &data.name,
            &c,
        )
        .unwrap_or_else(|e| panic!("{}: local replay failed: {e}", kind.name()));
        assert_eq!(
            remote.cardinality_trace(),
            local.cardinality_trace(),
            "{}: network-attached results must match the in-process replay",
            kind.name()
        );
        assert_eq!(remote.errors(), 0, "{}: no op errors", kind.name());
        assert_eq!(remote.engine, kind.name(), "engine name crosses the wire");
        server.shutdown();
    }
}

/// Mixed read/write workloads complete over the wire too (writes replay
/// server-side with per-connection owned-edge pools).
#[test]
fn remote_mixed_workload_completes() {
    let data = testkit::chain_dataset(150);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let c = cfg(MixKind::Mixed, 4, 30);
    let report = RemoteBackend::setup(&addr, &data, &c)
        .and_then(|b| run_backend(&b, &data.name, &c))
        .expect("remote mixed run");
    assert_eq!(report.ops() + report.errors(), 4 * 30);
    assert_eq!(report.errors(), 0, "no op should fail over loopback");
    assert!(report.throughput() > 0.0);
    server.shutdown();
}

/// Open-loop and bounded-overload pacing work unchanged over the wire: the
/// driver's shed accounting engages against a loopback server exactly as it
/// does in-process.
#[test]
fn bounded_overload_sheds_over_the_wire() {
    let data = testkit::chain_dataset(800);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let c = WorkloadConfig {
        pacing: Pacing::open_bounded(2_000_000.0, Duration::from_millis(2)),
        ..cfg(MixKind::ScanHeavy, 2, 600)
    };
    let report = RemoteBackend::setup(&addr, &data, &c)
        .and_then(|b| run_backend(&b, &data.name, &c))
        .expect("remote overload run");
    assert!(report.shed() > 0, "overload must shed over the wire");
    assert_eq!(
        report.ops() + report.errors() + report.shed(),
        2 * 600,
        "every scheduled op is completed, errored, or shed"
    );
    assert_eq!(report.offered_ops_per_sec, Some(2_000_000.0));
    server.shutdown();
}

/// `RemoteEngine` implements `GraphDb` transparently: the sequential
/// `Runner` and `catalog::execute_read` drive it with client-side query
/// decomposition, one round trip per primitive.
///
/// Read-only instances only: the server hosts a *single* engine, so the
/// Runner's cached-engine optimization would observe server-side mutations
/// (in-process it caches a separate never-mutated instance).
#[test]
fn remote_engine_drops_into_the_sequential_runner() {
    let data = testkit::chain_dataset(80);
    let kind = EngineKind::LinkedV1;
    let server = spawn_server(kind);
    let addr = server.addr().to_string();

    let remote_factory = move || -> Box<dyn GraphDb> {
        let engine = RemoteEngine::connect(&addr).expect("connect");
        engine.reset().expect("reset");
        Box::new(engine)
    };
    let workload = Workload::choose(&data, 7, 16);
    let mut runner = Runner::new(&remote_factory, &data, &workload, BenchConfig::default());
    assert_eq!(runner.engine_name(), kind.name());

    let local_factory = move || kind.make();
    let mut local_runner = Runner::new(&local_factory, &data, &workload, BenchConfig::default());

    for id in [
        QueryId::Q8,
        QueryId::Q9,
        QueryId::Q14,
        QueryId::Q23,
        QueryId::Q27,
    ] {
        let inst = QueryInstance::plain(id);
        let remote = runner.run_instance(&inst, RunMode::Isolation);
        let local = local_runner.run_instance(&inst, RunMode::Isolation);
        assert_eq!(remote.outcome, Outcome::Completed, "{id:?}");
        assert_eq!(
            remote.cardinality, local.cardinality,
            "{id:?}: remote runner answer must equal in-process"
        );
    }
    server.shutdown();
}

/// Error fidelity across the wire: engine errors keep their exact variant
/// instead of collapsing into a generic I/O error.
#[test]
fn remote_errors_keep_their_variant() {
    let data = testkit::chain_dataset(40);
    // Linked engine: a missing vertex stays VertexNotFound.
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let mut engine = RemoteEngine::connect(&addr).expect("connect");
    engine.reset().unwrap();
    engine.bulk_load(&data, &LoadOptions::default()).unwrap();
    match engine.remove_vertex(Vid(9_999_999)) {
        Err(GdbError::VertexNotFound(id)) => assert_eq!(id, 9_999_999),
        other => panic!("expected VertexNotFound across the wire, got {other:?}"),
    }
    match engine.edge_property(gm_model::Eid(9_999_999), "weight") {
        Err(GdbError::EdgeNotFound(_)) | Ok(None) => {}
        other => panic!("expected EdgeNotFound or None, got {other:?}"),
    }
    server.shutdown();

    // Triple engine: attribute indexes are unsupported — the variant (and
    // its message) must survive the round trip.
    let server = spawn_server(EngineKind::Triple);
    let addr = server.addr().to_string();
    let mut engine = RemoteEngine::connect(&addr).expect("connect");
    match engine.create_vertex_index("name") {
        Err(GdbError::Unsupported(_)) => {}
        other => panic!("expected Unsupported across the wire, got {other:?}"),
    }
    // ExecOp before Prepare is an Invalid protocol-state error.
    match engine.exec_op(
        gm_workload::Op::Read(QueryInstance::plain(QueryId::Q8)),
        0,
        0,
        Duration::from_secs(1),
    ) {
        Err(GdbError::Invalid(why)) => assert!(why.contains("Prepare"), "{why}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    server.shutdown();
}

/// A cooperative deadline crosses the wire: the remaining client budget is
/// forwarded, and a server-side timeout comes back as `GdbError::Timeout`.
#[test]
fn timeouts_cross_the_wire() {
    let data = testkit::chain_dataset(3_000);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let mut engine = RemoteEngine::connect(&addr).expect("connect");
    engine.reset().unwrap();
    engine.bulk_load(&data, &LoadOptions::default()).unwrap();
    // An already-expired context must fail server-side, not hang.
    let expired = QueryCtx::with_timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    match engine.distinct_neighbor_scan(gm_model::Direction::Both, &expired) {
        Err(GdbError::Timeout) => {}
        other => panic!("expected Timeout across the wire, got {other:?}"),
    }
    server.shutdown();
}

/// A `Reset` from one connection invalidates every other connection's
/// owned-edges pool: a stale `Eid` from the discarded engine must never
/// delete an edge of the freshly loaded one.
#[test]
fn reset_invalidates_other_connections_owned_edges() {
    use gm_workload::{Op, WriteOp};
    let data = testkit::chain_dataset(50);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();

    // Connection A: set up a run and create one owned edge.
    let mut a = RemoteEngine::connect(&addr).expect("connect A");
    a.reset().unwrap();
    a.bulk_load(&data, &LoadOptions::default()).unwrap();
    a.prepare(1, 16).unwrap();
    assert_eq!(
        a.exec_op(Op::Write(WriteOp::AddEdge), 0, 0, Duration::from_secs(1))
            .unwrap()
            .cardinality,
        1
    );

    // Connection B: start a brand-new run (reset + reload + prepare).
    let mut b = RemoteEngine::connect(&addr).expect("connect B");
    b.reset().unwrap();
    b.bulk_load(&data, &LoadOptions::default()).unwrap();
    b.prepare(1, 16).unwrap();

    // A's RemoveOwnEdge must NOT delete anything from the fresh engine: its
    // pool belongs to the discarded generation, so the op degrades to the
    // documented AddVertex fallback.
    a.exec_op(
        Op::Write(WriteOp::RemoveOwnEdge),
        0,
        1,
        Duration::from_secs(1),
    )
    .unwrap();
    let ctx = QueryCtx::unbounded();
    assert_eq!(
        b.edge_count(&ctx).unwrap(),
        data.edge_count() as u64,
        "stale pool must not delete fresh edges"
    );
    assert_eq!(
        b.vertex_count(&ctx).unwrap(),
        data.vertex_count() as u64 + 1,
        "the op degraded to the AddVertex fallback"
    );
    server.shutdown();
}

/// The server answers pipelined requests in order: several requests written
/// back to back on one connection, responses read afterwards.
#[test]
fn pipelined_requests_answered_in_order() {
    let data = testkit::chain_dataset(60);
    let server = spawn_server(EngineKind::Relational);
    let addr = server.addr().to_string();
    {
        let mut setup = RemoteEngine::connect(&addr).expect("connect");
        setup.reset().unwrap();
        setup.bulk_load(&data, &LoadOptions::default()).unwrap();
    }
    let mut conn = Connection::connect(&addr).expect("connect");
    // Three requests in flight before any response is read.
    conn.send(&Request::VertexCount { t: 0 }).unwrap();
    conn.send(&Request::EdgeCount { t: 0 }).unwrap();
    conn.send(&Request::HasVertexIndex {
        prop: "name".into(),
    })
    .unwrap();
    assert_eq!(conn.recv().unwrap(), Response::U64(60));
    assert_eq!(conn.recv().unwrap(), Response::U64(59));
    assert!(matches!(conn.recv().unwrap(), Response::Bool(_)));
    server.shutdown();
}

/// Handshake discipline: a wrong protocol version (or magic) is refused
/// with a descriptive error — the server never misparses a peer.
#[test]
fn version_and_magic_mismatches_rejected() {
    let server = spawn_server(EngineKind::LinkedV1);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("dial");
    let bad = Request::Hello {
        magic: MAGIC,
        version: PROTO_VERSION + 1,
    };
    wire::write_frame(&mut stream, &bad.encode().unwrap()).unwrap();
    match Response::decode(&wire::read_frame(&mut stream).unwrap()).unwrap() {
        Response::Err(GdbError::Invalid(why)) => {
            assert!(why.contains("version"), "{why}");
        }
        other => panic!("expected handshake rejection, got {other:?}"),
    }

    let mut stream = TcpStream::connect(addr).expect("dial");
    let bad = Request::Hello {
        magic: 0xDEAD_BEEF,
        version: PROTO_VERSION,
    };
    wire::write_frame(&mut stream, &bad.encode().unwrap()).unwrap();
    match Response::decode(&wire::read_frame(&mut stream).unwrap()).unwrap() {
        Response::Err(GdbError::Invalid(why)) => {
            assert!(why.contains("magic"), "{why}");
        }
        other => panic!("expected handshake rejection, got {other:?}"),
    }

    // A non-Hello first frame is refused too.
    let mut stream = TcpStream::connect(addr).expect("dial");
    wire::write_frame(&mut stream, &Request::Reset.encode().unwrap()).unwrap();
    match Response::decode(&wire::read_frame(&mut stream).unwrap()).unwrap() {
        Response::Err(GdbError::Invalid(why)) => {
            assert!(why.contains("Hello"), "{why}");
        }
        other => panic!("expected handshake rejection, got {other:?}"),
    }
    server.shutdown();
}

/// A peer that has not completed the handshake cannot make the server
/// allocate for its length prefix: a 200 MiB first frame (legal under
/// `wire::MAX_FRAME`) is refused by name and the connection closed, and the
/// server keeps serving.
#[test]
fn oversized_first_frame_is_refused_before_allocation() {
    use std::io::{Read, Write};

    let server = spawn_server(EngineKind::LinkedV1);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("dial");
    let claimed: u32 = 200 << 20;
    assert!((claimed as usize) < wire::MAX_FRAME);
    stream.write_all(&claimed.to_be_bytes()).unwrap();
    // No payload follows, so an answer means the server did not wait for it.
    match Response::decode(&wire::read_frame(&mut stream).unwrap()).unwrap() {
        Response::Err(GdbError::Corrupt(why)) => {
            assert!(why.contains("209715200") && why.contains("cap"), "{why}");
        }
        other => panic!("expected the length prefix to be refused, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        stream
            .read_to_end(&mut rest)
            .expect("server closes cleanly"),
        0,
        "connection must be closed after the refusal"
    );

    let mut conn = Connection::connect(&addr.to_string()).expect("server still serves");
    assert_eq!(conn.epoch().expect("epoch probe"), 0);
    server.shutdown();
}

/// A driver session's socket carries a deadline — the backend's
/// `op_timeout` + 1 s, set once before the handshake — so a server that
/// accepts and never answers fails `open_session`, and one that goes silent
/// after the handshake fails `execute`, with `GdbError::Timeout` instead of
/// blocking forever. The timed-out connection is not reused: a late answer
/// can never be read as the next op's.
#[test]
fn silent_servers_time_sessions_out_instead_of_hanging() {
    use gm_net::RemoteBackend;
    use gm_workload::{Backend, Op};
    use std::net::TcpListener;
    use std::time::Instant;

    let op_timeout = Duration::from_millis(300);
    let guard = Duration::from_secs(20);

    // Accepts the connection, then never reads or writes a byte.
    let mute = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = mute.local_addr().unwrap().to_string();
    let held = std::thread::spawn(move || mute.accept().map(|(stream, _)| stream));
    let backend = RemoteBackend::new(addr, "mute", op_timeout);
    let opened = testkit::within(guard, move || backend.open_session(0).map(drop));
    assert_eq!(opened, Err(GdbError::Timeout));
    drop(held.join().unwrap());

    // Completes the handshake, reads the first op, never answers it.
    let quiet = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = quiet.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = quiet.accept().unwrap();
        let hello = Request::decode(&wire::read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(hello, Request::Hello { .. }), "{hello:?}");
        let ack = Response::HelloAck {
            version: PROTO_VERSION,
            engine: "quiet".into(),
            shard: None,
        };
        wire::write_frame(&mut stream, &ack.encode().unwrap()).unwrap();
        let op = Request::decode(&wire::read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(op, Request::ExecOp { .. }), "{op:?}");
        stream
    });
    let backend = RemoteBackend::new(addr, "quiet", op_timeout);
    let (first, waited, second) = testkit::within(guard, move || {
        let mut session = backend.open_session(0).expect("the handshake is answered");
        let op = Op::Read(QueryInstance::plain(QueryId::Q8));
        let t = Instant::now();
        let first = session.execute(op, 0, 0).map(drop);
        let waited = t.elapsed();
        (first, waited, session.execute(op, 0, 1).map(drop))
    });
    assert_eq!(first, Err(GdbError::Timeout));
    assert!(waited >= op_timeout, "timed out after {waited:?}");
    match second {
        Err(GdbError::Io(why)) => assert!(why.contains("abandoned"), "{why}"),
        other => panic!("a timed-out connection must not be reused, got {other:?}"),
    }
    drop(server.join().unwrap());
}

/// Snapshot-mode hosting (satellite of the gm-mvcc PR): a server built over
/// a `SnapshotSource` serves every read from a pinned epoch, and the v2
/// `ExecOp` response carries that serving epoch. With a concurrent remote
/// writer hammering the engine, a remote scan client asserts the epoch
/// contract end to end:
///
/// * every read response decodes against exactly **one** epoch (responses
///   with equal epochs agree exactly — no torn reads across the wire);
/// * epochs are monotone per connection (so `epoch_skew` stays 0);
/// * counts are monotone in epoch, and the final epoch sees every write.
#[test]
fn snapshot_server_tags_reads_with_one_epoch_under_concurrent_writers() {
    use gm_workload::{Op, WriteOp, WORKLOAD_SLOTS};
    use graphmark::mvcc::SnapshotMode;

    let data = testkit::chain_dataset(120);
    let kind = EngineKind::LinkedV2;
    let server = Server::bind_host(
        "127.0.0.1:0",
        Box::new(move || Box::new(kind.make_snapshot_source(SnapshotMode::Cow))),
    )
    .expect("bind snapshot loopback")
    .spawn()
    .expect("spawn snapshot server");
    let addr = server.addr().to_string();

    let ctl = RemoteEngine::connect(&addr).expect("connect control");
    ctl.reset().unwrap();
    {
        // bulk_load takes &mut; scope a second connection for setup.
        let mut loader = RemoteEngine::connect(&addr).expect("connect loader");
        loader.bulk_load(&data, &LoadOptions::default()).unwrap();
    }
    ctl.prepare(7, WORKLOAD_SLOTS as u32).unwrap();

    const WRITES: u64 = 120;
    const READS: u64 = 150;
    let initial = data.vertex_count() as u64;

    let samples = std::thread::scope(|s| {
        let addr_w = addr.clone();
        let writer = s.spawn(move || {
            let w = RemoteEngine::connect(&addr_w).expect("connect writer");
            for i in 0..WRITES {
                w.exec_op(Op::Write(WriteOp::AddVertex), 0, i, Duration::from_secs(5))
                    .expect("remote write");
            }
        });
        let addr_r = addr.clone();
        let reader = s.spawn(move || {
            let r = RemoteEngine::connect(&addr_r).expect("connect reader");
            let mut samples: Vec<(u64, u64)> = Vec::new();
            for i in 0..READS {
                let res = r
                    .exec_op(
                        Op::Read(QueryInstance::plain(QueryId::Q8)),
                        1,
                        i,
                        Duration::from_secs(5),
                    )
                    .expect("remote read");
                let epoch = res
                    .epoch
                    .expect("snapshot server must tag reads with the serving epoch");
                samples.push((epoch, res.cardinality));
            }
            samples
        });
        writer.join().expect("writer thread");
        reader.join().expect("reader thread")
    });

    // Monotone epochs per connection: a later read never serves an older
    // graph version (this is exactly what the driver's epoch_skew counts).
    for pair in samples.windows(2) {
        assert!(
            pair[1].0 >= pair[0].0,
            "epochs must be monotone per connection: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
    // One epoch = one graph version: reads claiming the same epoch agree
    // exactly, no matter how the writer interleaved.
    let mut by_epoch: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (epoch, count) in &samples {
        if let Some(prev) = by_epoch.insert(*epoch, *count) {
            assert_eq!(
                prev, *count,
                "two reads of epoch {epoch} disagreed ({prev} vs {count})"
            );
        }
    }
    // Counts are monotone in epoch (writers only add), within bounds.
    let mut last = 0u64;
    for (epoch, count) in &by_epoch {
        assert!(
            *count >= last && *count >= initial && *count <= initial + WRITES,
            "epoch {epoch} count {count} out of range"
        );
        last = *count;
    }
    // A final pin observes every write: the server's ExecOp reads tolerate
    // bounded staleness (gm-workload's pin cadence), so let the pending
    // epoch age past the bound before asserting exactness.
    std::thread::sleep(Duration::from_millis(5));
    let final_count = ctl
        .exec_op(
            Op::Read(QueryInstance::plain(QueryId::Q8)),
            1,
            READS,
            Duration::from_secs(5),
        )
        .expect("final read");
    assert_eq!(final_count.cardinality, initial + WRITES);
    assert!(final_count.epoch.is_some());

    server.shutdown();
}

/// Sharded hosting (the gm-shard PR's loopback satellite): a server built
/// over a per-partition-locked `ShardedGraph` serves the same results as
/// the in-process sharded replay — and as the unsharded replay, closing
/// the loop remote-sharded == local-sharded == local-unsharded.
#[test]
fn sharded_server_matches_in_process_sharded_and_unsharded_replay() {
    let data = testkit::chain_dataset(150);
    let kind = EngineKind::LinkedV2;
    let server = Server::bind_host(
        "127.0.0.1:0",
        Box::new(move || Box::new(kind.make_sharded(4))),
    )
    .expect("bind sharded loopback")
    .spawn()
    .expect("spawn sharded server");
    let addr = server.addr().to_string();

    let c = cfg(MixKind::ReadOnly, 3, 20);
    let remote = RemoteBackend::setup(&addr, &data, &c)
        .and_then(|b| run_backend(&b, &data.name, &c))
        .expect("remote sharded run");
    let graph = kind.make_sharded(4);
    let params = prepare(&graph, &data, c.seed).unwrap();
    let backend = HostBackend::new(&graph, &params, c.op_timeout);
    let local_sharded = run_backend_sequential(&backend, &data.name, &c).expect("local sharded");
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, c.seed).unwrap();
    let backend = HostBackend::new(&host, &params, c.op_timeout);
    let local_plain = run_backend_sequential(&backend, &data.name, &c).expect("local unsharded");
    assert_eq!(
        remote.cardinality_trace(),
        local_sharded.cardinality_trace(),
        "remote sharded results must match the in-process sharded replay"
    );
    assert_eq!(
        remote.cardinality_trace(),
        local_plain.cardinality_trace(),
        "…and therefore the unsharded replay too"
    );
    assert_eq!(remote.errors(), 0);
    assert_eq!(
        remote.engine, "linked(v2)/s4",
        "the composite's shard count crosses the wire"
    );
    server.shutdown();
}

/// Concurrent remote writers on different shards must not serialize: the
/// per-op lock wait of a write-heavy run against a 4-shard server stays
/// below the same run against a 1-shard server (identical composite
/// machinery, so the comparison isolates the lock split). Lock waits are
/// measured server-side and shipped in the v3 `ExecDone` frames. A few
/// attempts are allowed — the claim is structural, a single descheduled
/// run must not fail it.
#[test]
fn remote_writers_on_different_shards_do_not_serialize() {
    let data = testkit::chain_dataset(120);
    let kind = EngineKind::Triple; // heavy writes: serialization dominates
    let run_against = |shards: usize| -> u64 {
        let server = Server::bind_host(
            "127.0.0.1:0",
            Box::new(move || Box::new(kind.make_sharded(shards))),
        )
        .expect("bind sharded loopback")
        .spawn()
        .expect("spawn sharded server");
        let addr = server.addr().to_string();
        let c = cfg(MixKind::WriteHeavy, 6, 400);
        let report = RemoteBackend::setup(&addr, &data, &c)
            .and_then(|b| run_backend(&b, &data.name, &c))
            .expect("remote write-heavy run");
        assert_eq!(report.errors(), 0, "s{shards}: clean run");
        let row = report.scaling_row();
        server.shutdown();
        assert!(
            row.lock_wait_nanos > 0,
            "s{shards}: server-side lock waits must cross the wire"
        );
        eprintln!(
            "[loopback] s{shards}: lock wait {} ns/op over {} ops",
            row.lock_wait_per_op(),
            row.ops
        );
        row.lock_wait_per_op()
    };
    // The structural claim: the 4-shard server *can* run the write stream
    // with less queueing than the single lock's typical run. Median for
    // the baseline (its typical serialization), best-of for the sharded
    // side — a single descheduled attempt must not fail an honest win.
    let mut base: Vec<u64> = (0..3).map(|_| run_against(1)).collect();
    base.sort_unstable();
    let typical1 = base[1];
    let best4 = (0..3).map(|_| run_against(4)).min().unwrap();
    if best4 >= typical1 {
        // Minimum-core guard: with 6 workers time-slicing fewer than 4
        // cores, lock queueing is dominated by the scheduler, not the lock
        // split — the comparison is not a deterministic claim there.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            cores < 4,
            "4-shard per-op lock wait ({best4} ns) must stay below the single-lock \
             baseline ({typical1} ns median) on a {cores}-core host: writers on \
             different shards must not serialize"
        );
        eprintln!(
            "[loopback] {cores}-core host: lock-split comparison not deterministic \
             here (best4={best4} ns vs typical1={typical1} ns), gate relaxed"
        );
    }
}

/// A snapshot-hosted server still satisfies the determinism contract: a
/// read-only remote workload matches the in-process sequential replay op
/// for op, and a locked-mode server answers `ExecOp` reads with no epoch.
#[test]
fn snapshot_server_read_only_matches_replay_and_locked_has_no_epoch() {
    use gm_workload::Op;
    use graphmark::mvcc::SnapshotMode;

    let data = testkit::chain_dataset(150);
    let kind = EngineKind::ColumnarV10;
    let server = Server::bind_host(
        "127.0.0.1:0",
        Box::new(move || Box::new(kind.make_snapshot_source(SnapshotMode::Native))),
    )
    .expect("bind native snapshot loopback")
    .spawn()
    .expect("spawn");
    let addr = server.addr().to_string();
    let c = cfg(MixKind::ReadOnly, 3, 20);
    let remote = RemoteBackend::setup(&addr, &data, &c)
        .and_then(|b| run_backend(&b, &data.name, &c))
        .expect("remote snapshot run");
    let host = SharedEngine::new(kind.make());
    let params = prepare(&host, &data, c.seed).unwrap();
    let backend = HostBackend::new(&host, &params, c.op_timeout);
    let local = run_backend_sequential(&backend, &data.name, &c).expect("local replay");
    assert_eq!(
        remote.cardinality_trace(),
        local.cardinality_trace(),
        "snapshot-served results must match the in-process replay"
    );
    assert_eq!(remote.epoch_skew(), 0, "in-order epochs never skew");
    server.shutdown();

    // Locked-mode servers keep answering ExecOp — with no epoch tag.
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let ctl = RemoteEngine::connect(&addr).expect("connect");
    ctl.reset().unwrap();
    {
        let mut loader = RemoteEngine::connect(&addr).expect("loader");
        loader.bulk_load(&data, &LoadOptions::default()).unwrap();
    }
    ctl.prepare(7, gm_workload::WORKLOAD_SLOTS as u32).unwrap();
    let res = ctl
        .exec_op(
            Op::Read(QueryInstance::plain(QueryId::Q8)),
            0,
            0,
            Duration::from_secs(5),
        )
        .expect("locked read");
    assert_eq!(res.epoch, None, "locked mode carries no epochs");
    server.shutdown();
}

/// `GetStats` returns a well-formed snapshot of the server's live metrics
/// registry: the server-side `net.ops` counter advances by at least the
/// number of `ExecOp` frames a workload shipped, and the remote run's
/// report splits client latency into wire time and server-reported
/// execution time (the v4 `ExecDone` phase breakdown).
#[test]
fn get_stats_round_trips_from_a_live_server() {
    fn counter(s: &gm_obs::RegistrySnapshot, name: &str) -> u64 {
        s.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    let data = testkit::chain_dataset(150);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let mut conn = Connection::connect(&addr).expect("connect");
    let before = counter(&conn.get_stats().expect("stats before run"), "net.ops");

    let c = cfg(MixKind::ReadOnly, 2, 15);
    let report = RemoteBackend::setup(&addr, &data, &c)
        .and_then(|b| run_backend(&b, &data.name, &c))
        .expect("remote run");
    assert_eq!(report.errors(), 0);

    let after = counter(&conn.get_stats().expect("stats after run"), "net.ops");
    assert!(
        after >= before + 2 * 15,
        "server-side net.ops must count every ExecOp frame: before={before} after={after}"
    );

    // Default mode is `phases`: the client attributes frame codec time and
    // the socket round trip (minus server-reported time) to the wire
    // phases, so the report's latency split is populated.
    let phases = report.phase_nanos();
    assert!(
        phases.wire() > 0,
        "remote runs must attribute wire time: {phases:?}"
    );
    assert!(
        phases.get(gm_workload::Phase::EngineExec) > 0,
        "server-side exec time must cross the wire: {phases:?}"
    );
    server.shutdown();
}

/// PROTO v5 satellite: every `GetStats` snapshot carries the server's
/// monotonic capture stamp, so two snapshots bound the interval between
/// them without comparing wall clocks across processes.
#[test]
fn stats_snapshots_carry_a_monotone_capture_stamp() {
    let server = spawn_server(EngineKind::LinkedV1);
    let addr = server.addr().to_string();
    let mut conn = Connection::connect(&addr).expect("connect");
    let a = conn.get_stats().expect("first stats");
    std::thread::sleep(Duration::from_millis(3));
    let b = conn.get_stats().expect("second stats");
    assert!(
        b.captured_at_us >= a.captured_at_us + 2_000,
        "a later snapshot must carry a later stamp covering the sleep: \
         {} then {}",
        a.captured_at_us,
        b.captured_at_us
    );
    server.shutdown();
}

/// PROTO v5 tentpole: the server records `ExecOp` spans in its flight
/// recorder under the **client's** trace id, and `GetTraces` ships them
/// back — so the client can stitch one cross-process trace out of its own
/// end-to-end measurement and the server's phase-attributed span.
#[test]
fn server_records_exec_traces_under_the_client_trace_id() {
    use gm_obs::trace;
    use gm_workload::Op;

    let data = testkit::chain_dataset(80);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    let mut engine = RemoteEngine::connect(&addr).expect("connect");
    engine.reset().unwrap();
    engine.bulk_load(&data, &LoadOptions::default()).unwrap();
    engine
        .prepare(7, gm_workload::WORKLOAD_SLOTS as u32)
        .unwrap();

    // An id with the low 7 bits clear is retained by the tail gate's
    // deterministic sampling arm, so this test does not depend on how other
    // tests in this process have warmed the shared gate's tail threshold.
    let id = 0x5EED_0080u64;
    assert_eq!(id & 0x7F, 0);
    trace::begin_op(id);
    let t0 = std::time::Instant::now();
    engine
        .exec_op(
            Op::Read(QueryInstance::plain(QueryId::Q8)),
            3,
            17,
            Duration::from_secs(5),
        )
        .expect("remote read");
    let e2e = t0.elapsed().as_nanos() as u64;

    let mut conn = Connection::connect(&addr).expect("connect");
    let records = conn.get_traces().expect("get traces");
    let rec = records
        .iter()
        .find(|r| r.id == id)
        .expect("the server must record the span under the client's trace id");
    assert_eq!(rec.origin, trace::TraceOrigin::Server);
    assert_eq!(rec.worker, 3);
    assert_eq!(rec.op_index, 17);
    assert_eq!(rec.op_code, 8, "Q8's trace code crosses the wire");
    assert!(
        rec.total_nanos <= e2e,
        "the server span ({}) nests inside the client's end-to-end time ({e2e})",
        rec.total_nanos
    );
    assert!(
        rec.phases.total() <= rec.total_nanos,
        "self-time phases never exceed the span they attribute"
    );
    server.shutdown();
}

/// PROTO v7 tentpole: an epoch-pinned write transaction over the wire.
/// Writes after `TxnBegin` buffer server-side (invisible to other
/// connections), reads on the transaction's connection see the
/// read-your-writes overlay, and `TxnCommit` publishes everything
/// atomically. A conflicting transaction on a second connection loses
/// first-committer-wins with the distinct `TxnConflict` variant.
#[test]
fn wire_transactions_buffer_commit_atomically_and_conflict_distinctly() {
    use graphmark::mvcc::SnapshotMode;

    let data = testkit::chain_dataset(50);
    let kind = EngineKind::LinkedV2;
    let server = Server::bind_host(
        "127.0.0.1:0",
        Box::new(move || Box::new(kind.make_snapshot_source(SnapshotMode::Cow))),
    )
    .expect("bind snapshot loopback")
    .spawn()
    .expect("spawn snapshot server");
    let addr = server.addr().to_string();

    {
        let mut loader = RemoteEngine::connect(&addr).expect("loader");
        loader.bulk_load(&data, &LoadOptions::default()).unwrap();
    }

    let mut a = Connection::connect(&addr).expect("connect A");
    let mut b = Connection::connect(&addr).expect("connect B");

    let epoch = a.txn_begin().expect("begin");
    // Buffer two writes: a fresh vertex and a property on an existing one.
    let created = match a
        .call(&Request::AddVertex {
            label: "txn".into(),
            props: vec![],
        })
        .unwrap()
    {
        Response::U64(v) => v,
        other => panic!("expected U64, got {other:?}"),
    };
    a.call(&Request::SetVertexProp {
        v: 7,
        name: "who".into(),
        value: gm_model::Value::Str("a".into()),
    })
    .unwrap();

    // RYOW on A's connection: the buffered vertex is visible…
    assert_eq!(
        a.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(51)
    );
    assert_eq!(
        a.call(&Request::GetVertex(created)).unwrap().kind(),
        "OptVertex"
    );
    assert_eq!(
        a.call(&Request::Epoch).unwrap(),
        Response::U64(epoch),
        "reads inside the txn stay pinned to the begin epoch"
    );
    // …and invisible to B until commit.
    assert_eq!(
        b.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(50),
        "uncommitted writes must not leak across connections"
    );

    // B opens a conflicting transaction against the same pre-commit epoch.
    b.txn_begin().expect("begin B");
    b.call(&Request::SetVertexProp {
        v: 7,
        name: "who".into(),
        value: gm_model::Value::Str("b".into()),
    })
    .unwrap();

    // A commits first and wins; the published count includes its vertex.
    let (ops, _epoch_after) = a.txn_commit().expect("commit A");
    assert_eq!(ops, 2, "both buffered writes replayed");
    assert_eq!(
        a.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(51)
    );

    // B's commit lost the race: the distinct variant crosses the wire and
    // its write set is discarded.
    match b.txn_commit() {
        Err(GdbError::TxnConflict(why)) => assert!(why.contains("v7"), "{why}"),
        other => panic!("expected TxnConflict across the wire, got {other:?}"),
    }
    match b.call(&Request::VertexProperty {
        v: 7,
        name: "who".into(),
    }) {
        Ok(Response::OptValue(Some(gm_model::Value::Str(s)))) => assert_eq!(s, "a"),
        other => panic!("winner's property must survive, got {other:?}"),
    }

    // Commit/abort without an open transaction are protocol-state errors,
    // and the connection stays usable after them.
    match b.txn_commit() {
        Err(GdbError::Invalid(why)) => assert!(why.contains("open transaction"), "{why}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(
        b.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(51)
    );

    // Abort discards: a new transaction's buffered write disappears.
    a.txn_begin().expect("begin again");
    a.call(&Request::AddVertex {
        label: "discard".into(),
        props: vec![],
    })
    .unwrap();
    assert_eq!(a.txn_abort().expect("abort"), 1);
    assert_eq!(
        a.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(51)
    );

    // Structural frames are refused while a transaction is open.
    a.txn_begin().expect("begin for structural check");
    match a.call(&Request::Reset) {
        Err(GdbError::Invalid(why)) => assert!(why.contains("transaction"), "{why}"),
        other => panic!("expected Invalid for Reset inside txn, got {other:?}"),
    }
    a.txn_abort().expect("abort structural check");

    // Locked-mode hosting refuses transactions outright.
    let locked = spawn_server(EngineKind::LinkedV2);
    let locked_addr = locked.addr().to_string();
    let mut c = Connection::connect(&locked_addr).expect("connect locked");
    match c.txn_begin() {
        Err(GdbError::Unsupported(why)) => assert!(why.contains("snapshot"), "{why}"),
        other => panic!("expected Unsupported under locked hosting, got {other:?}"),
    }
    locked.shutdown();
    server.shutdown();
}

/// A failing entry inside an `ExecBatch` (here: `RemoveVertex` of a vertex
/// that does not exist) must surface as an inline per-entry error with the
/// same `GdbError` variant the in-process engine returns — without aborting
/// the rest of the batch or the connection. This is the contract the fleet
/// coordinator's deferred write path relies on.
#[test]
fn batch_entry_errors_stay_inline_and_keep_the_variant() {
    let data = testkit::chain_dataset(30);
    let server = spawn_server(EngineKind::LinkedV2);
    let addr = server.addr().to_string();
    {
        let mut loader = RemoteEngine::connect(&addr).expect("loader");
        loader.bulk_load(&data, &LoadOptions::default()).unwrap();
    }

    // The in-process variant for the same failure, as the oracle.
    let mut oracle = EngineKind::LinkedV2.make();
    oracle.bulk_load(&data, &LoadOptions::default()).unwrap();
    let expected = oracle.remove_vertex(Vid(9_999_999)).unwrap_err();
    assert!(matches!(expected, GdbError::VertexNotFound(9_999_999)));

    let mut conn = Connection::connect(&addr).expect("connect");
    let rsps = conn
        .call_batch(vec![
            Request::AddVertex {
                label: "pre".into(),
                props: vec![],
            },
            Request::RemoveVertex(9_999_999),
            Request::VertexCount { t: 0 },
        ])
        .expect("the batch envelope itself must succeed");
    assert_eq!(rsps.len(), 3);
    assert!(matches!(rsps[0], Response::U64(_)), "{:?}", rsps[0]);
    match &rsps[1] {
        Response::Err(e) => assert_eq!(
            e, &expected,
            "wire batch error must keep the in-process variant"
        ),
        other => panic!("expected inline Err entry, got {other:?}"),
    }
    assert_eq!(
        rsps[2],
        Response::U64(31),
        "entries after the failure still execute"
    );

    // The connection survives the failed entry.
    assert_eq!(
        conn.call(&Request::VertexCount { t: 0 }).unwrap(),
        Response::U64(31)
    );
    server.shutdown();
}
