//! Golden wire bytes: `golden_frames.txt` holds the encoded payload of one
//! fixed sample per request and response frame, recorded at the commit
//! *before* `proto.rs` became a frame table. `encode` must reproduce every
//! line byte for byte and `decode` must read it back — the proof that a
//! refactor of the codec did not move the format, so `PROTO_VERSION` did
//! not have to.
//!
//! A new frame needs a sample here and a fixture line; the failure for a
//! missing line prints the line to add.

use std::collections::{BTreeMap, BTreeSet};

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, LoadOptions, LoadStats, SpaceReport, VertexData,
};
use gm_model::{Dataset, DsEdge, DsVertex, Eid, GdbError, Props, Value, Vid};
use gm_net::proto::Frame;
use gm_net::{Request, Response, MAGIC, PROTO_VERSION};
use gm_obs::{HistSnapshot, Phase, PhaseNanos, RegistrySnapshot, TraceOrigin, TraceRecord};
use gm_workload::{Op, WriteOp};

const FIXTURE: &str = include_str!("golden_frames.txt");

/// One property of every `Value` variant.
fn all_value_props() -> Props {
    vec![
        ("s".into(), Value::Str("ann ☃".into())),
        ("i".into(), Value::Int(-42)),
        ("f".into(), Value::Float(2.5)),
        ("b".into(), Value::Bool(true)),
        ("n".into(), Value::Null),
    ]
}

fn exec_op(strict: bool, op: Op) -> Request {
    Request::ExecOp {
        worker: 3,
        op_index: 99,
        trace_id: 0xDEAD_BEEF_CAFE_0001,
        timeout_micros: 5_000_000,
        strict,
        op,
    }
}

/// `(sample name, request)`; the name up to the first `.` is the frame.
fn request_samples() -> Vec<(&'static str, Request)> {
    let name = || "name".to_string();
    let value = || Value::Str("ann".into());
    let knows = || "knows".to_string();
    let add_vertex = || Request::AddVertex {
        label: "person".into(),
        props: all_value_props(),
    };
    vec![
        (
            "Hello",
            Request::Hello {
                magic: MAGIC,
                version: PROTO_VERSION,
            },
        ),
        ("Reset", Request::Reset),
        (
            "BulkLoad",
            Request::BulkLoad {
                opts: LoadOptions {
                    bulk: true,
                    index_during_load: false,
                },
                data: Dataset {
                    name: "tiny".into(),
                    vertices: vec![
                        DsVertex {
                            id: 0,
                            label: "person".into(),
                            props: all_value_props(),
                        },
                        DsVertex {
                            id: 1,
                            label: "city".into(),
                            props: vec![],
                        },
                    ],
                    edges: vec![DsEdge {
                        id: 0,
                        src: 0,
                        dst: 1,
                        label: "lives_in".into(),
                        props: vec![("since".into(), Value::Int(2018))],
                    }],
                },
            },
        ),
        (
            "Prepare",
            Request::Prepare {
                seed: 42,
                slots: 16,
            },
        ),
        (
            "ExecOp.read",
            exec_op(
                false,
                Op::Read(QueryInstance {
                    id: QueryId::Q32,
                    depth: Some(3),
                    k: None,
                }),
            ),
        ),
        (
            "ExecOp.read_k",
            exec_op(
                true,
                Op::Read(QueryInstance {
                    id: QueryId::Q28,
                    depth: None,
                    k: Some(7),
                }),
            ),
        ),
        (
            "ExecOp.write",
            exec_op(true, Op::Write(WriteOp::RemoveOwnEdge)),
        ),
        ("GetStats", Request::GetStats),
        ("GetTraces", Request::GetTraces),
        ("ExecBatch.empty", Request::ExecBatch(vec![])),
        (
            "ExecBatch",
            Request::ExecBatch(vec![
                add_vertex(),
                Request::AddEdge {
                    src: 11,
                    dst: 42,
                    label: "wl_edge".into(),
                    props: vec![],
                },
                Request::RemoveEdge(9),
                exec_op(false, Op::Write(WriteOp::AddVertex)),
                Request::Epoch,
            ]),
        ),
        ("Features", Request::Features),
        ("ResolveVertex", Request::ResolveVertex(17)),
        ("ResolveEdge", Request::ResolveEdge(u64::MAX)),
        ("AddVertex", add_vertex()),
        (
            "AddEdge",
            Request::AddEdge {
                src: 1,
                dst: 2,
                label: knows(),
                props: vec![("w".into(), Value::Float(0.5))],
            },
        ),
        (
            "SetVertexProp",
            Request::SetVertexProp {
                v: 7,
                name: name(),
                value: value(),
            },
        ),
        (
            "SetEdgeProp",
            Request::SetEdgeProp {
                e: 8,
                name: name(),
                value: Value::Null,
            },
        ),
        ("VertexCount", Request::VertexCount { t: 0 }),
        ("EdgeCount", Request::EdgeCount { t: 1 }),
        ("EdgeLabelSet", Request::EdgeLabelSet { t: 2 }),
        (
            "VerticesWithProperty",
            Request::VerticesWithProperty {
                name: name(),
                value: value(),
                t: 3,
            },
        ),
        (
            "EdgesWithProperty",
            Request::EdgesWithProperty {
                name: name(),
                value: Value::Int(5),
                t: 4,
            },
        ),
        (
            "EdgesWithLabel",
            Request::EdgesWithLabel {
                label: knows(),
                t: 5,
            },
        ),
        ("GetVertex", Request::GetVertex(6)),
        ("GetEdge", Request::GetEdge(7)),
        ("RemoveVertex", Request::RemoveVertex(8)),
        ("RemoveEdge", Request::RemoveEdge(9)),
        (
            "RemoveVertexProp",
            Request::RemoveVertexProp {
                v: 10,
                name: name(),
            },
        ),
        (
            "RemoveEdgeProp",
            Request::RemoveEdgeProp {
                e: 11,
                name: name(),
            },
        ),
        (
            "VertexEdges",
            Request::VertexEdges {
                v: 13,
                dir: Direction::In,
                label: None,
                t: 0,
            },
        ),
        (
            "VertexDegree",
            Request::VertexDegree {
                v: 14,
                dir: Direction::Out,
                t: 9,
            },
        ),
        (
            "VertexEdgeLabels",
            Request::VertexEdgeLabels {
                v: 15,
                dir: Direction::Both,
                t: 10,
            },
        ),
        ("ScanVertices", Request::ScanVertices { t: 11 }),
        ("ScanEdges", Request::ScanEdges { t: 12 }),
        (
            "VertexProperty",
            Request::VertexProperty {
                v: 16,
                name: name(),
            },
        ),
        (
            "EdgeProperty",
            Request::EdgeProperty {
                e: 17,
                name: name(),
            },
        ),
        ("EdgeEndpoints", Request::EdgeEndpoints(18)),
        ("EdgeLabel", Request::EdgeLabel(19)),
        ("VertexLabel", Request::VertexLabel(20)),
        (
            "DegreeScan",
            Request::DegreeScan {
                dir: Direction::In,
                k: 4,
                t: 13,
            },
        ),
        (
            "DistinctNeighborScan",
            Request::DistinctNeighborScan {
                dir: Direction::Out,
                t: 14,
            },
        ),
        (
            "CreateVertexIndex",
            Request::CreateVertexIndex { prop: name() },
        ),
        ("HasVertexIndex", Request::HasVertexIndex { prop: name() }),
        ("Space", Request::Space),
        ("Sync", Request::Sync),
        ("Epoch", Request::Epoch),
        ("TxnBegin", Request::TxnBegin),
        ("TxnCommit", Request::TxnCommit),
        ("TxnAbort", Request::TxnAbort),
    ]
}

fn stats_sample() -> RegistrySnapshot {
    let mut hist = HistSnapshot::default();
    hist.counts[0] = 1;
    hist.counts[10] = 2;
    hist.count = 3;
    hist.sum = 2_048;
    hist.min = 0;
    hist.max = 1_500;
    RegistrySnapshot {
        captured_at_us: 987_654,
        counters: vec![("net.ops".into(), 41), ("shard.0.ops".into(), 7)],
        gauges: vec![("mvcc.cow.epoch".into(), 12), ("negative".into(), -9)],
        hists: vec![
            ("empty".into(), HistSnapshot::default()),
            ("net.op_nanos".into(), hist),
        ],
    }
}

fn traces_sample() -> Vec<TraceRecord> {
    let mut phases = PhaseNanos::zero();
    phases.set(Phase::EngineExec, 900_000);
    phases.set(Phase::WireIo, 300_000);
    vec![
        TraceRecord {
            id: 0x0123_4567_89AB_CDEF,
            worker: 5,
            op_index: 1_000,
            op_code: 23,
            start_us: 987_654,
            total_nanos: 1_234_567,
            phases,
            origin: TraceOrigin::Client,
            tail: true,
        },
        TraceRecord {
            id: 1,
            worker: 0,
            op_index: 0,
            op_code: 201,
            start_us: 0,
            total_nanos: u64::MAX,
            phases: PhaseNanos::zero(),
            origin: TraceOrigin::Server,
            tail: false,
        },
    ]
}

/// `(sample name, response)`; the name up to the first `.` is the frame.
fn response_samples() -> Vec<(&'static str, Response)> {
    vec![
        (
            "HelloAck.standalone",
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "linked(v2)".into(),
                shard: None,
            },
        ),
        (
            "HelloAck.shard",
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "triple".into(),
                shard: Some((2, 4)),
            },
        ),
        ("Unit", Response::Unit),
        ("Bool", Response::Bool(true)),
        ("U64", Response::U64(7)),
        ("OptU64.none", Response::OptU64(None)),
        ("OptU64.some", Response::OptU64(Some(3))),
        ("U64List", Response::U64List(vec![1, 2, u64::MAX])),
        (
            "StrList",
            Response::StrList(vec!["a".into(), "knows".into()]),
        ),
        ("OptValue.none", Response::OptValue(None)),
        ("OptValue.some", Response::OptValue(Some(Value::Float(1.5)))),
        ("OptStr.none", Response::OptStr(None)),
        ("OptStr.some", Response::OptStr(Some("knows".into()))),
        ("OptPair.none", Response::OptPair(None)),
        ("OptPair.some", Response::OptPair(Some((4, 5)))),
        (
            "EdgeRefs",
            Response::EdgeRefs(vec![
                EdgeRef {
                    eid: Eid(1),
                    other: Vid(2),
                },
                EdgeRef {
                    eid: Eid(3),
                    other: Vid(4),
                },
            ]),
        ),
        ("OptVertex.none", Response::OptVertex(None)),
        (
            "OptVertex.some",
            Response::OptVertex(Some(VertexData {
                id: Vid(9),
                label: "person".into(),
                props: all_value_props(),
            })),
        ),
        ("OptEdge.none", Response::OptEdge(None)),
        (
            "OptEdge.some",
            Response::OptEdge(Some(EdgeData {
                id: Eid(1),
                src: Vid(2),
                dst: Vid(3),
                label: "knows".into(),
                props: vec![("since".into(), Value::Int(2018))],
            })),
        ),
        (
            "Load",
            Response::Load(LoadStats {
                vertices: 10,
                edges: 20,
            }),
        ),
        (
            "Features",
            Response::Features(EngineFeatures {
                name: "linked(v2)".into(),
                system_type: "Native".into(),
                storage: "linked fixed-size records".into(),
                edge_traversal: "direct pointer".into(),
                optimized_adapter: false,
                async_writes: true,
                attribute_indexes: true,
                max_identifier_len: Some(63),
            }),
        ),
        (
            "Space",
            Response::Space(SpaceReport {
                components: vec![("node records".into(), 4096), ("edge records".into(), 0)],
            }),
        ),
        (
            "ExecDone.epoch",
            Response::ExecDone {
                card: 12,
                epoch: Some(9),
                lock_wait: 1_250,
                exec_nanos: 48_000,
                pin_nanos: 700,
                clone_nanos: 3_000,
            },
        ),
        (
            "ExecDone.locked",
            Response::ExecDone {
                card: 0,
                epoch: None,
                lock_wait: 0,
                exec_nanos: 0,
                pin_nanos: 0,
                clone_nanos: 0,
            },
        ),
        ("Stats.empty", Response::Stats(RegistrySnapshot::default())),
        ("Stats", Response::Stats(stats_sample())),
        ("Traces.empty", Response::Traces(vec![])),
        ("Traces", Response::Traces(traces_sample())),
        ("BatchDone.empty", Response::BatchDone(vec![])),
        (
            "BatchDone.inline_err",
            Response::BatchDone(vec![
                Response::U64(1),
                Response::Err(GdbError::VertexNotFound(7)),
                Response::Unit,
            ]),
        ),
        ("TxnBegun", Response::TxnBegun { epoch: 42 }),
        ("TxnCommitted", Response::TxnCommitted { ops: 9, epoch: 43 }),
        ("TxnAborted", Response::TxnAborted { ops: 3 }),
        ("Err.Timeout", Response::Err(GdbError::Timeout)),
        (
            "Err.VertexNotFound",
            Response::Err(GdbError::VertexNotFound(17)),
        ),
        (
            "Err.EdgeNotFound",
            Response::Err(GdbError::EdgeNotFound(u64::MAX)),
        ),
        (
            "Err.Unsupported",
            Response::Err(GdbError::Unsupported("no vertex indexes".into())),
        ),
        (
            "Err.Corrupt",
            Response::Err(GdbError::Corrupt("bad page".into())),
        ),
        (
            "Err.Invalid",
            Response::Err(GdbError::Invalid("empty label".into())),
        ),
        (
            "Err.ResourceExhausted",
            Response::Err(GdbError::ResourceExhausted("bitmap cap".into())),
        ),
        ("Err.Io", Response::Err(GdbError::Io("disk gone".into()))),
        (
            "Err.Poisoned",
            Response::Err(GdbError::Poisoned("writer panicked".into())),
        ),
        (
            "Err.TxnConflict",
            Response::Err(GdbError::TxnConflict("vertex v7".into())),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let pairs = s.as_bytes().chunks_exact(2);
    assert!(
        pairs.remainder().is_empty(),
        "odd-length hex in fixture: {s}"
    );
    pairs
        .map(|pair| {
            let pair = std::str::from_utf8(pair).expect("fixture hex is ASCII");
            u8::from_str_radix(pair, 16).expect("fixture hex digit")
        })
        .collect()
}

/// The fixture's `<direction> <sample> <hex>` lines of one direction.
fn recorded(direction: &str) -> BTreeMap<&'static str, Vec<u8>> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let dir = cols.next()?;
            let name = cols.next()?;
            // Empty payloads do not occur: every frame has an opcode byte.
            let bytes = unhex(cols.next()?);
            (dir == direction).then_some((name, bytes))
        })
        .collect()
}

fn check_direction<T: std::fmt::Debug + PartialEq>(
    direction: &str,
    frames: &[Frame],
    samples: Vec<(&'static str, T)>,
    name_of: impl Fn(&T) -> &'static str,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> T,
) {
    let recorded = recorded(direction);
    let names: BTreeSet<_> = samples.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names.len(),
        samples.len(),
        "duplicate {direction} sample name"
    );
    // One sample per table row at least, filed under the row's name.
    let sampled: BTreeSet<_> = samples.iter().map(|(_, s)| name_of(s)).collect();
    let declared: BTreeSet<_> = frames.iter().map(|f| f.name).collect();
    assert_eq!(sampled, declared, "{direction} samples vs the frame table");
    for (name, sample) in &samples {
        assert_eq!(name.split('.').next(), Some(name_of(sample)), "{name}");
        let bytes = encode(sample);
        let want = recorded.get(name).unwrap_or_else(|| {
            panic!(
                "no fixture line for {direction} sample {name}; add:\n{direction} {name} {}",
                hex(&bytes)
            )
        });
        assert_eq!(
            hex(&bytes),
            hex(want),
            "{direction} {name}: encode moved off the recorded bytes"
        );
        assert_eq!(
            &decode(want),
            sample,
            "{direction} {name}: decode of the recorded bytes"
        );
    }
    for name in recorded.keys() {
        assert!(
            names.contains(name),
            "fixture line {direction} {name} has no sample"
        );
    }
}

#[test]
fn requests_match_the_recorded_bytes() {
    check_direction(
        "req",
        Request::FRAMES,
        request_samples(),
        Request::name,
        |r| r.encode().unwrap(),
        |b| Request::decode(b).unwrap(),
    );
}

#[test]
fn responses_match_the_recorded_bytes() {
    check_direction(
        "rsp",
        Response::FRAMES,
        response_samples(),
        Response::kind,
        |r| r.encode().unwrap(),
        |b| Response::decode(b).unwrap(),
    );
}

#[test]
fn proto_version_did_not_move() {
    assert_eq!(PROTO_VERSION, 9);
}
