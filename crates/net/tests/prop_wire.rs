//! Property-based tests of the gm-net wire protocol, enumerated from the
//! frame tables (`Request::FRAMES` / `Response::FRAMES`): every case draws
//! one value of **every** frame, so each property holds for 47/47 request
//! and 24/24 response frames — values encode → decode identically, and
//! truncated/corrupt frames are rejected without panicking — and one
//! `Mutation` of any variant, which its frame carries unchanged.

use std::borrow::Cow;
use std::collections::BTreeSet;

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, LoadOptions, LoadStats, Mutation, SpaceReport,
    VertexData,
};
use gm_model::{Dataset, DsEdge, DsVertex, Eid, GdbError, Props, Value, Vid};
use gm_net::proto::{Frame, FrameKind};
use gm_net::wire::{self, Cur};
use gm_net::{Request, Response};
use gm_obs::{
    HistSnapshot, PhaseNanos, RegistrySnapshot, TraceOrigin, TraceRecord, BUCKETS, PHASES,
};
use gm_workload::{Op, WriteOp};
use proptest::prelude::*;
use proptest::strategy::Union;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 _☃-]{0,24}".prop_map(Value::Str),
    ]
}

fn arb_props() -> impl Strategy<Value = Props> {
    prop::collection::vec(("[a-z_]{1,12}", arb_value()), 0..6)
}

fn arb_instance() -> impl Strategy<Value = QueryInstance> {
    (
        0..QueryId::ALL.len(),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u64>()),
    )
        .prop_map(|(i, depth, k)| QueryInstance {
            id: QueryId::ALL[i],
            depth,
            k,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_instance().prop_map(Op::Read),
        prop_oneof![
            Just(WriteOp::AddVertex),
            Just(WriteOp::AddEdge),
            Just(WriteOp::SetVertexProp),
            Just(WriteOp::RemoveOwnEdge),
        ]
        .prop_map(Op::Write),
    ]
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::In),
        Just(Direction::Out),
        Just(Direction::Both)
    ]
}

/// The generator of one request frame, by its name in the table. A frame
/// the table gained and this match did not fails every property by name.
fn request_frame(name: &str) -> BoxedStrategy<Request> {
    let t = any::<u64>;
    let id = any::<u64>;
    let s = || "[a-z]{1,8}".prop_map(String::from);
    let opt_label = || prop::option::of("[a-z]{0,8}".prop_map(String::from));
    match name {
        "Hello" => (any::<u32>(), any::<u16>())
            .prop_map(|(magic, version)| Request::Hello { magic, version })
            .boxed(),
        "Reset" => Just(Request::Reset).boxed(),
        "BulkLoad" => (any::<bool>(), any::<bool>(), arb_dataset())
            .prop_map(|(bulk, index_during_load, data)| Request::BulkLoad {
                opts: LoadOptions {
                    bulk,
                    index_during_load,
                },
                data,
            })
            .boxed(),
        "Prepare" => (any::<u64>(), any::<u32>())
            .prop_map(|(seed, slots)| Request::Prepare { seed, slots })
            .boxed(),
        "ExecOp" => (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            arb_op(),
        )
            .prop_map(
                |(worker, op_index, trace_id, timeout_micros, strict, op)| Request::ExecOp {
                    worker,
                    op_index,
                    trace_id,
                    timeout_micros,
                    strict,
                    op,
                },
            )
            .boxed(),
        "GetStats" => Just(Request::GetStats).boxed(),
        "GetTraces" => Just(Request::GetTraces).boxed(),
        "ExecBatch" => arb_batch().boxed(),
        "Features" => Just(Request::Features).boxed(),
        "ResolveVertex" => id().prop_map(Request::ResolveVertex).boxed(),
        "ResolveEdge" => id().prop_map(Request::ResolveEdge).boxed(),
        "AddVertex" => (s(), arb_props())
            .prop_map(|(label, props)| Request::AddVertex { label, props })
            .boxed(),
        "AddEdge" => (id(), id(), s(), arb_props())
            .prop_map(|(src, dst, label, props)| Request::AddEdge {
                src,
                dst,
                label,
                props,
            })
            .boxed(),
        "SetVertexProp" => (id(), s(), arb_value())
            .prop_map(|(v, name, value)| Request::SetVertexProp { v, name, value })
            .boxed(),
        "SetEdgeProp" => (id(), s(), arb_value())
            .prop_map(|(e, name, value)| Request::SetEdgeProp { e, name, value })
            .boxed(),
        "VertexCount" => t().prop_map(|t| Request::VertexCount { t }).boxed(),
        "EdgeCount" => t().prop_map(|t| Request::EdgeCount { t }).boxed(),
        "EdgeLabelSet" => t().prop_map(|t| Request::EdgeLabelSet { t }).boxed(),
        "VerticesWithProperty" => (s(), arb_value(), t())
            .prop_map(|(name, value, t)| Request::VerticesWithProperty { name, value, t })
            .boxed(),
        "EdgesWithProperty" => (s(), arb_value(), t())
            .prop_map(|(name, value, t)| Request::EdgesWithProperty { name, value, t })
            .boxed(),
        "EdgesWithLabel" => (s(), t())
            .prop_map(|(label, t)| Request::EdgesWithLabel { label, t })
            .boxed(),
        "GetVertex" => id().prop_map(Request::GetVertex).boxed(),
        "GetEdge" => id().prop_map(Request::GetEdge).boxed(),
        "RemoveVertex" => id().prop_map(Request::RemoveVertex).boxed(),
        "RemoveEdge" => id().prop_map(Request::RemoveEdge).boxed(),
        "RemoveVertexProp" => (id(), s())
            .prop_map(|(v, name)| Request::RemoveVertexProp { v, name })
            .boxed(),
        "RemoveEdgeProp" => (id(), s())
            .prop_map(|(e, name)| Request::RemoveEdgeProp { e, name })
            .boxed(),
        "VertexEdges" => (id(), arb_direction(), opt_label(), t())
            .prop_map(|(v, dir, label, t)| Request::VertexEdges { v, dir, label, t })
            .boxed(),
        "VertexDegree" => (id(), arb_direction(), t())
            .prop_map(|(v, dir, t)| Request::VertexDegree { v, dir, t })
            .boxed(),
        "VertexEdgeLabels" => (id(), arb_direction(), t())
            .prop_map(|(v, dir, t)| Request::VertexEdgeLabels { v, dir, t })
            .boxed(),
        "ScanVertices" => t().prop_map(|t| Request::ScanVertices { t }).boxed(),
        "ScanEdges" => t().prop_map(|t| Request::ScanEdges { t }).boxed(),
        "VertexProperty" => (id(), s())
            .prop_map(|(v, name)| Request::VertexProperty { v, name })
            .boxed(),
        "EdgeProperty" => (id(), s())
            .prop_map(|(e, name)| Request::EdgeProperty { e, name })
            .boxed(),
        "EdgeEndpoints" => id().prop_map(Request::EdgeEndpoints).boxed(),
        "EdgeLabel" => id().prop_map(Request::EdgeLabel).boxed(),
        "VertexLabel" => id().prop_map(Request::VertexLabel).boxed(),
        "DegreeScan" => (arb_direction(), any::<u64>(), t())
            .prop_map(|(dir, k, t)| Request::DegreeScan { dir, k, t })
            .boxed(),
        "DistinctNeighborScan" => (arb_direction(), t())
            .prop_map(|(dir, t)| Request::DistinctNeighborScan { dir, t })
            .boxed(),
        "CreateVertexIndex" => s()
            .prop_map(|prop| Request::CreateVertexIndex { prop })
            .boxed(),
        "HasVertexIndex" => s()
            .prop_map(|prop| Request::HasVertexIndex { prop })
            .boxed(),
        "Space" => Just(Request::Space).boxed(),
        "Sync" => Just(Request::Sync).boxed(),
        "Epoch" => Just(Request::Epoch).boxed(),
        "TxnBegin" => Just(Request::TxnBegin).boxed(),
        "TxnCommit" => Just(Request::TxnCommit).boxed(),
        "TxnAbort" => Just(Request::TxnAbort).boxed(),
        other => panic!("prop_wire has no generator for request frame {other}"),
    }
}

/// A small valid dataset: edge endpoints are drawn inside the vertex range.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let vertex = ("[a-z]{1,6}", arb_props());
    let edge = (any::<u64>(), any::<u64>(), "[a-z]{1,6}", arb_props());
    (
        "[a-z]{1,6}",
        prop::collection::vec(vertex, 0..4),
        prop::collection::vec(edge, 0..4),
    )
        .prop_map(|(name, vs, es)| {
            let n = vs.len() as u64;
            let vertices = (0u64..)
                .zip(vs)
                .map(|(id, (label, props))| DsVertex { id, label, props })
                .collect();
            let edges = (0u64..)
                .zip(es.into_iter().filter(|_| n > 0))
                .map(|(id, (src, dst, label, props))| DsEdge {
                    id,
                    src: src % n,
                    dst: dst % n,
                    label,
                    props,
                })
                .collect();
            Dataset {
                name,
                vertices,
                edges,
            }
        })
}

/// Any mutation, every variant, owning its fields as a decoded one does.
fn arb_mutation() -> impl Strategy<Value = Mutation<'static>> {
    let name = || "[a-z]{1,8}".prop_map(|s| Cow::Owned(s.to_string()));
    let props = || arb_props().prop_map(Cow::Owned);
    let vid = || any::<u64>().prop_map(Vid);
    let eid = || any::<u64>().prop_map(Eid);
    let opts = (any::<bool>(), any::<bool>()).prop_map(|(bulk, index_during_load)| LoadOptions {
        bulk,
        index_during_load,
    });
    prop_oneof![
        (arb_dataset(), opts).prop_map(|(d, o)| Mutation::BulkLoad(Cow::Owned(d), o)),
        (name(), props()).prop_map(|(l, p)| Mutation::AddVertex(l, p)),
        (vid(), vid(), name(), props()).prop_map(|(s, d, l, p)| Mutation::AddEdge(s, d, l, p)),
        (vid(), name(), arb_value()).prop_map(|(v, n, x)| Mutation::SetVertexProperty(v, n, x)),
        (eid(), name(), arb_value()).prop_map(|(e, n, x)| Mutation::SetEdgeProperty(e, n, x)),
        vid().prop_map(Mutation::RemoveVertex),
        eid().prop_map(Mutation::RemoveEdge),
        (vid(), name()).prop_map(|(v, n)| Mutation::RemoveVertexProperty(v, n)),
        (eid(), name()).prop_map(|(e, n)| Mutation::RemoveEdgeProperty(e, n)),
        name().prop_map(Mutation::CreateVertexIndex),
        Just(Mutation::Sync),
    ]
}

/// One request of every frame in the table, in table order.
fn arb_every_request() -> impl Strategy<Value = Vec<Request>> {
    Request::FRAMES
        .iter()
        .map(|f| request_frame(f.name))
        .collect::<Vec<_>>()
}

/// A batch frame: any mix of the frames a batch may carry. The decoder
/// rejects a `Hello` or a nested batch entry, so the generator stays flat
/// like the wire.
fn arb_batch() -> impl Strategy<Value = Request> {
    let entry = Union::new(
        Request::FRAMES
            .iter()
            .filter(|f| !["Hello", "ExecBatch"].contains(&f.name))
            .map(|f| (1, request_frame(f.name)))
            .collect(),
    );
    prop::collection::vec(entry, 0..12).prop_map(Request::ExecBatch)
}

fn arb_error() -> impl Strategy<Value = GdbError> {
    let why = || "[a-z ]{0,16}".prop_map(String::from);
    prop_oneof![
        Just(GdbError::Timeout),
        any::<u64>().prop_map(GdbError::VertexNotFound),
        any::<u64>().prop_map(GdbError::EdgeNotFound),
        why().prop_map(GdbError::Unsupported),
        why().prop_map(GdbError::Corrupt),
        why().prop_map(GdbError::Invalid),
        why().prop_map(GdbError::ResourceExhausted),
        why().prop_map(GdbError::Io),
        why().prop_map(GdbError::Poisoned),
        why().prop_map(GdbError::TxnConflict),
    ]
}

fn arb_hist() -> impl Strategy<Value = HistSnapshot> {
    (
        prop::collection::vec(any::<u64>(), 0..BUCKETS + 1),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(prefix, count, sum, min, max)| {
            let mut h = HistSnapshot {
                count,
                sum,
                min,
                max,
                ..HistSnapshot::default()
            };
            for (slot, c) in h.counts.iter_mut().zip(prefix) {
                *slot = c;
            }
            h
        })
}

fn arb_stats() -> impl Strategy<Value = RegistrySnapshot> {
    let name = || "[a-z.]{1,12}".prop_map(String::from);
    (
        any::<u64>(),
        prop::collection::vec((name(), any::<u64>()), 0..4),
        prop::collection::vec((name(), any::<i64>()), 0..4),
        prop::collection::vec((name(), arb_hist()), 0..3),
    )
        .prop_map(
            |(captured_at_us, counters, gauges, hists)| RegistrySnapshot {
                captured_at_us,
                counters,
                gauges,
                hists,
            },
        )
}

fn arb_trace_record() -> impl Strategy<Value = TraceRecord> {
    (
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u16>()),
        (any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u64>(), PHASES..PHASES + 1),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |((id, worker, op_index, op_code), (start_us, total_nanos), nanos, server, tail)| {
                let mut phases = PhaseNanos::zero();
                for (slot, n) in phases.0.iter_mut().zip(nanos) {
                    *slot = n;
                }
                TraceRecord {
                    id,
                    worker,
                    op_index,
                    op_code,
                    start_us,
                    total_nanos,
                    phases,
                    origin: if server {
                        TraceOrigin::Server
                    } else {
                        TraceOrigin::Client
                    },
                    tail,
                }
            },
        )
}

/// The generator of one response frame, by its name in the table.
fn response_frame(name: &str) -> BoxedStrategy<Response> {
    let s = || "[a-z ]{0,12}".prop_map(String::from);
    let id = any::<u64>;
    match name {
        "HelloAck" => (
            any::<u16>(),
            s(),
            prop::option::of((any::<u32>(), any::<u32>())),
        )
            .prop_map(|(version, engine, shard)| Response::HelloAck {
                version,
                engine,
                shard,
            })
            .boxed(),
        "Unit" => Just(Response::Unit).boxed(),
        "Bool" => any::<bool>().prop_map(Response::Bool).boxed(),
        "U64" => id().prop_map(Response::U64).boxed(),
        "OptU64" => prop::option::of(id()).prop_map(Response::OptU64).boxed(),
        "U64List" => prop::collection::vec(id(), 0..32)
            .prop_map(Response::U64List)
            .boxed(),
        "StrList" => prop::collection::vec(s(), 0..8)
            .prop_map(Response::StrList)
            .boxed(),
        "OptValue" => prop::option::of(arb_value())
            .prop_map(Response::OptValue)
            .boxed(),
        "OptStr" => prop::option::of(s()).prop_map(Response::OptStr).boxed(),
        "OptPair" => prop::option::of((id(), id()))
            .prop_map(Response::OptPair)
            .boxed(),
        "EdgeRefs" => prop::collection::vec((id(), id()), 0..8)
            .prop_map(|refs| {
                Response::EdgeRefs(
                    refs.into_iter()
                        .map(|(e, v)| EdgeRef {
                            eid: Eid(e),
                            other: Vid(v),
                        })
                        .collect(),
                )
            })
            .boxed(),
        "OptVertex" => prop::option::of((id(), s(), arb_props()))
            .prop_map(|v| {
                Response::OptVertex(v.map(|(id, label, props)| VertexData {
                    id: Vid(id),
                    label,
                    props,
                }))
            })
            .boxed(),
        "OptEdge" => prop::option::of((id(), id(), id(), s(), arb_props()))
            .prop_map(|e| {
                Response::OptEdge(e.map(|(id, src, dst, label, props)| EdgeData {
                    id: Eid(id),
                    src: Vid(src),
                    dst: Vid(dst),
                    label,
                    props,
                }))
            })
            .boxed(),
        "Load" => (id(), id())
            .prop_map(|(vertices, edges)| Response::Load(LoadStats { vertices, edges }))
            .boxed(),
        "Features" => (
            (s(), s(), s(), s()),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            prop::option::of(any::<u32>()),
        )
            .prop_map(
                |((name, system_type, storage, edge_traversal), flags, limit)| {
                    Response::Features(EngineFeatures {
                        name,
                        system_type,
                        storage,
                        edge_traversal,
                        optimized_adapter: flags.0,
                        async_writes: flags.1,
                        attribute_indexes: flags.2,
                        max_identifier_len: limit,
                    })
                },
            )
            .boxed(),
        "Space" => prop::collection::vec((s(), id()), 0..6)
            .prop_map(|components| Response::Space(SpaceReport { components }))
            .boxed(),
        "ExecDone" => (id(), id(), id(), id(), id(), prop::option::of(any::<u64>()))
            .prop_map(
                |(card, lock_wait, exec_nanos, pin_nanos, clone_nanos, epoch)| Response::ExecDone {
                    card,
                    lock_wait,
                    exec_nanos,
                    pin_nanos,
                    clone_nanos,
                    epoch,
                },
            )
            .boxed(),
        "Stats" => arb_stats().prop_map(Response::Stats).boxed(),
        "Traces" => prop::collection::vec(arb_trace_record(), 0..4)
            .prop_map(Response::Traces)
            .boxed(),
        "BatchDone" => arb_batch_done().boxed(),
        "TxnBegun" => id().prop_map(|epoch| Response::TxnBegun { epoch }).boxed(),
        "TxnCommitted" => (id(), id())
            .prop_map(|(ops, epoch)| Response::TxnCommitted { ops, epoch })
            .boxed(),
        "TxnAborted" => id().prop_map(|ops| Response::TxnAborted { ops }).boxed(),
        "Err" => arb_error().prop_map(Response::Err).boxed(),
        other => panic!("prop_wire has no generator for response frame {other}"),
    }
}

/// One response of every frame in the table, in table order.
fn arb_every_response() -> impl Strategy<Value = Vec<Response>> {
    Response::FRAMES
        .iter()
        .map(|f| response_frame(f.name))
        .collect::<Vec<_>>()
}

/// A `BatchDone` envelope: any mix of the other response frames, including
/// entries that carry errors.
fn arb_batch_done() -> impl Strategy<Value = Response> {
    let entry = Union::new(
        Response::FRAMES
            .iter()
            .filter(|f| f.name != "BatchDone")
            .map(|f| (1, response_frame(f.name)))
            .collect(),
    );
    prop::collection::vec(entry, 0..12).prop_map(Response::BatchDone)
}

/// Exact structural equality: `Value`'s `PartialEq` equates `Int(2)` with
/// `Float(2.0)`, but the codec must preserve the variant too.
fn same_value(a: &Value, b: &Value) -> bool {
    a == b && a.type_tag() == b.type_tag()
}

/// The byte a seeded draw corrupts: `bytes[pos % len] ^= 1 << bit`.
fn flip(bytes: &mut [u8], pos: u16, bit: u8) {
    if !bytes.is_empty() {
        let i = (pos as usize) % bytes.len();
        bytes[i] ^= 1 << bit;
    }
}

/// A stream that hands out its bytes in chunks of the given sizes (cycled)
/// per `read` — however TCP happened to segment them.
struct Chunking {
    bytes: Vec<u8>,
    at: usize,
    chunks: Vec<usize>,
    reads: usize,
}

impl std::io::Read for Chunking {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(out.len()).min(self.bytes.len() - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What the table promises about itself: names and opcodes are unique, and
/// the decoder knows exactly the table's opcodes — every other first byte
/// is rejected as an unknown op, by name.
#[test]
fn tables_and_decoders_agree_on_the_opcodes() {
    fn check(frames: &[Frame], what: &str, decode: impl Fn(&[u8]) -> Result<(), GdbError>) {
        let names: BTreeSet<_> = frames.iter().map(|f| f.name).collect();
        let opcodes: BTreeSet<_> = frames.iter().map(|f| f.opcode).collect();
        assert_eq!(names.len(), frames.len(), "duplicate {what} frame name");
        assert_eq!(opcodes.len(), frames.len(), "duplicate {what} opcode");
        let unknown = format!("unknown {what} op");
        for op in 0..=u8::MAX {
            let refused_as_unknown = match decode(&[op]) {
                Err(GdbError::Corrupt(why)) => why.contains(&unknown),
                _ => false,
            };
            assert_eq!(
                refused_as_unknown,
                !opcodes.contains(&op),
                "{what} opcode {op:#x}"
            );
        }
    }
    assert_eq!(Request::FRAMES.len(), 47);
    assert_eq!(Response::FRAMES.len(), 24);
    check(Request::FRAMES, "request", |b| Request::decode(b).map(drop));
    check(Response::FRAMES, "response", |b| {
        Response::decode(b).map(drop)
    });
}

proptest! {
    /// Every request frame of the table round-trips identically through
    /// encode → decode, under its own opcode.
    #[test]
    fn request_round_trip(reqs in arb_every_request()) {
        prop_assert_eq!(reqs.len(), Request::FRAMES.len());
        for (req, frame) in reqs.iter().zip(Request::FRAMES) {
            prop_assert_eq!(req.name(), frame.name);
            let bytes = req.encode().unwrap();
            prop_assert_eq!(bytes.first(), Some(&frame.opcode));
            let back = Request::decode(&bytes).unwrap();
            prop_assert_eq!(&back, req);
            prop_assert_eq!(back.encode().unwrap(), bytes);
            // For value-carrying requests, check variant-exactness too.
            if let (
                Request::VerticesWithProperty { value: a, .. },
                Request::VerticesWithProperty { value: b, .. },
            ) = (req, &back)
            {
                prop_assert!(same_value(a, b));
            }
        }
    }

    /// The wire moves the `Mutation` value itself: its frame gives it back
    /// unchanged, before and after an encode → decode; and exactly the
    /// write rows (plus Q1's `BulkLoad`) of the table carry one.
    #[test]
    fn mutations_round_trip_through_their_frames(
        m in arb_mutation(),
        reqs in arb_every_request(),
    ) {
        let req = Request::from(m.clone());
        let back = Request::decode(&req.encode().unwrap()).unwrap();
        prop_assert_eq!(back.into_mutation(), Some(m.clone()));
        prop_assert_eq!(req.into_mutation(), Some(m));
        for req in reqs {
            let carries = req.kind() == FrameKind::Write || req.name() == "BulkLoad";
            prop_assert_eq!(req.clone().into_mutation().is_some(), carries, "{}", req.name());
        }
    }

    /// Every response frame of the table round-trips identically.
    #[test]
    fn response_round_trip(rsps in arb_every_response()) {
        prop_assert_eq!(rsps.len(), Response::FRAMES.len());
        for (rsp, frame) in rsps.iter().zip(Response::FRAMES) {
            prop_assert_eq!(rsp.kind(), frame.name);
            let bytes = rsp.encode().unwrap();
            prop_assert_eq!(bytes.first(), Some(&frame.opcode));
            let back = Response::decode(&bytes).unwrap();
            prop_assert_eq!(&back, rsp);
            prop_assert_eq!(back.encode().unwrap(), bytes);
        }
    }

    /// Arbitrary value payloads survive the low-level codec variant-exactly.
    #[test]
    fn value_payload_round_trip(props in arb_props()) {
        let mut out = Vec::new();
        wire::put_props(&mut out, &props).unwrap();
        let mut cur = Cur::new(&out);
        let back = cur.props().unwrap();
        cur.finish().unwrap();
        prop_assert_eq!(back.len(), props.len());
        for ((an, av), (bn, bv)) in back.iter().zip(props.iter()) {
            prop_assert_eq!(an, bn);
            prop_assert!(same_value(av, bv), "{:?} vs {:?}", av, bv);
        }
    }

    /// `ExecBatch` frames round-trip identically: every entry survives in
    /// order, whatever mix of ops the client queued.
    #[test]
    fn exec_batch_round_trip(batch in arb_batch()) {
        let bytes = batch.encode().unwrap();
        let back = Request::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &batch);
    }

    /// `BatchDone` envelopes round-trip too, including entries that carry
    /// errors (a rejected op must not corrupt its successors' decode).
    #[test]
    fn batch_done_round_trip(rsp in arb_batch_done()) {
        let bytes = rsp.encode().unwrap();
        let back = Response::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &rsp);
    }

    /// A batch entry of any frame that is itself a batch (or a `Hello`) is
    /// refused, whatever surrounds it: decode depth stays at one.
    #[test]
    fn nested_batch_entries_rejected(
        reqs in arb_every_request(),
        rsps in arb_every_response(),
        inner in arb_batch(),
        inner_done in arb_batch_done(),
    ) {
        for nested in [inner, Request::Hello { magic: 1, version: 2 }] {
            let mut entries = reqs.clone();
            entries.retain(|r| !matches!(r, Request::Hello { .. } | Request::ExecBatch(_)));
            entries.push(nested);
            // `encode` does not police nesting; the decoder does.
            let bytes = Request::ExecBatch(entries).encode().unwrap();
            prop_assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));
        }
        let mut entries = rsps;
        entries.retain(|r| !matches!(r, Response::BatchDone(_)));
        entries.push(inner_done);
        let bytes = Response::BatchDone(entries).encode().unwrap();
        prop_assert!(matches!(Response::decode(&bytes), Err(GdbError::Corrupt(_))));
    }

    /// Every proper prefix of a valid frame — of every request and response
    /// frame of the table — is rejected: never accepted as some other
    /// message, never a panic.
    #[test]
    fn truncated_frames_rejected(
        reqs in arb_every_request(),
        rsps in arb_every_response(),
        frac in 0.0f64..1.0,
    ) {
        for req in &reqs {
            let bytes = req.encode().unwrap();
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "{} cut at {}", req.name(), cut);
        }
        for rsp in &rsps {
            let bytes = rsp.encode().unwrap();
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(Response::decode(&bytes[..cut]).is_err(), "{} cut at {}", rsp.kind(), cut);
        }
    }

    /// An arbitrary sequence of table frames, framed back to back by one
    /// `FrameWriter` and read through one `FrameReader` from a stream that
    /// chunks the bytes arbitrarily, comes back frame for frame — none
    /// lost, merged or split — and then ends cleanly.
    #[test]
    fn frame_sequences_survive_any_chunking(
        reqs in arb_every_request(),
        rsps in arb_every_response(),
        picks in prop::collection::vec((any::<bool>(), 0usize..1_000), 0..40),
        chunks in prop::collection::vec(1usize..20_000, 1..8),
    ) {
        let seq: Vec<Result<&Request, &Response>> = picks
            .iter()
            .map(|&(req, i)| if req { Ok(&reqs[i % reqs.len()]) } else { Err(&rsps[i % rsps.len()]) })
            .collect();
        let mut bytes = Vec::new();
        let mut writer = wire::FrameWriter::new(&mut bytes);
        for frame in &seq {
            match frame {
                Ok(req) => writer.send(|out| req.encode_into(out)),
                Err(rsp) => writer.send(|out| rsp.encode_into(out)),
            }
            .unwrap();
        }
        drop(writer);
        let mut reader = wire::FrameReader::new(Chunking { bytes, at: 0, chunks, reads: 0 });
        for frame in &seq {
            match frame {
                Ok(req) => prop_assert_eq!(&reader.recv(Request::decode).unwrap(), *req),
                Err(rsp) => prop_assert_eq!(&reader.recv(Response::decode).unwrap(), *rsp),
            }
        }
        prop_assert!(matches!(reader.recv(|_| Ok(())), Err(GdbError::Io(_))));
    }

    /// Decoding arbitrary bytes never panics (it may legitimately succeed
    /// when the bytes happen to spell a valid message).
    #[test]
    fn corrupt_frames_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut cur = Cur::new(&bytes);
        let _ = cur.props();
    }

    /// Single-byte corruption of a valid frame — of every request and
    /// response frame of the table — either decodes to *some* message or
    /// errors: it never panics or over-allocates (the nested-batch
    /// rejection keeps decode depth bounded too).
    #[test]
    fn bitflips_never_panic(
        reqs in arb_every_request(),
        rsps in arb_every_response(),
        pos in any::<u16>(),
        bit in 0u8..8,
    ) {
        for req in &reqs {
            let mut bytes = req.encode().unwrap();
            flip(&mut bytes, pos, bit);
            let _ = Request::decode(&bytes);
        }
        for rsp in &rsps {
            let mut bytes = rsp.encode().unwrap();
            flip(&mut bytes, pos, bit);
            let _ = Response::decode(&bytes);
        }
    }
}
