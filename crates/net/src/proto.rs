//! The gm-net message set: versioned request/response frames, declared
//! **once** in the two frame tables below.
//!
//! A connection starts with a [`Request::Hello`] carrying [`MAGIC`] and
//! [`PROTO_VERSION`]; the server answers [`Response::HelloAck`] (or an error
//! frame) before anything else. After the handshake the client may send any
//! number of requests; the server answers each **in order**, so clients are
//! free to pipeline (send several requests before reading the first
//! response) — the per-connection handler is a plain read→execute→write
//! loop, which makes pipelining safe by construction.
//!
//! Two request families share the connection:
//!
//! * **primitive calls** — one frame per [`GraphDb`](gm_model::GraphDb)
//!   method, used by `RemoteEngine` to implement the trait transparently
//!   (client-side query decomposition, one round trip per primitive);
//! * **workload frames** — [`Request::ExecOp`] ships a whole driver op
//!   ([`QueryInstance`] by query id + swept params, or a CUD write) and the
//!   server executes it against its resolved parameters in one round trip,
//!   which is how real client/server deployments execute Gremlin
//!   server-side.
//!
//! # Where a frame is defined
//!
//! One row of a `frames!` table is the whole definition of a frame: its
//! opcode, its name, its fields in wire order (each field's type names its
//! codec through the private `Wire` trait) and, for requests, how the
//! server dispatches it ([`FrameKind`]). The enum variant, the opcode
//! constant, the `encode` and `decode` arms, [`Request::kind`], the typed
//! `Response::into_*` accessors and the [`Request::FRAMES`] /
//! [`Response::FRAMES`] lists the tests enumerate are all generated from
//! that row. Adding a read primitive is one row here, one arm in the
//! server's `answer_read` and one `RemoteEngine` method. A write primitive
//! is a [`Mutation`] variant: one row here plus its arm in
//! `From<Mutation>` and [`Request::into_mutation`], which are the only
//! code that names the write frames — `RemoteEngine`, the server and the
//! fleet move the mutation value, and a write's answer is one of the four
//! frames [`Response::into_applied`] maps onto [`Applied`].

use std::borrow::Cow;

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::api::{
    Applied, Direction, EdgeRef, EngineFeatures, LoadOptions, LoadStats, Mutation, SpaceReport,
};
use gm_model::{
    Dataset, DsEdge, DsVertex, EdgeData, Eid, GdbError, GdbResult, Props, Value, VertexData, Vid,
};
use gm_obs::{
    HistSnapshot, PhaseNanos, RegistrySnapshot, TraceOrigin, TraceRecord, BUCKETS, PHASES,
};
use gm_workload::{Op, WriteOp};

use crate::wire::{self, Cur};

/// Wire magic: `"GMNT"`.
pub const MAGIC: u32 = 0x474D_4E54;

/// Protocol version; bumped on any frame-format change. The server refuses
/// mismatched clients at handshake instead of misparsing their frames.
///
/// The format: a frame payload is one opcode byte (requests `0x01..=0x37`,
/// responses `0x80..=0x96` and `0xFF` for [`Response::Err`]) followed by the
/// frame's fields in table order, nothing after them. Integers are
/// little-endian and fixed-width, `bool` is one `0`/`1` byte, a string is a
/// `u32` byte length plus UTF-8, `Option<T>` is a presence `bool` plus `T`,
/// a list is a `u32` count plus its elements, a [`Value`] uses the storage
/// layer's tag-prefixed codec, and an enum (direction, write op, trace
/// origin, [`GdbError`]) is a tag byte plus that variant's fields. The
/// entries of [`Request::ExecBatch`] / [`Response::BatchDone`] are whole
/// frames, each behind its own `u32` length, one level deep.
/// `crates/net/tests/golden_frames.txt` pins the bytes of every frame.
///
/// The tables hold 47 request and 24 response frames. History: 1 the
/// primitive calls and `ExecOp`; 2 `ExecDone` carries the serving epoch;
/// 3 and its lock wait; 4 `GetStats`; 5 trace ids and `GetTraces`; 6
/// `ExecBatch` and `Epoch` for fleets; 7 write transactions; 8 retires
/// `Neighbors` (`0x23`) — a remote adjacency walk is one `VertexEdges`
/// frame, whatever collects it; 9 the `Features` reply carries
/// `max_identifier_len`, so a remote transaction refuses what the engine
/// would.
pub const PROTO_VERSION: u16 = 9;

// ----- field codecs --------------------------------------------------------

/// The one wire encoding of a field type. A frame-table row names a field's
/// codec by naming its type.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()>;
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self>;
}

macro_rules! wire_scalar {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
                wire::$put(out, *self);
                Ok(())
            }
            fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
                cur.$get()
            }
        }
    )*};
}

wire_scalar! {
    u8: put_u8, u8;
    u16: put_u16, u16;
    u32: put_u32, u32;
    u64: put_u64, u64;
    bool: put_bool, bool_;
}

/// Types that ride as one `u64`.
macro_rules! wire_as_u64 {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
                wire::put_u64(out, $to(self));
                Ok(())
            }
            fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
                cur.u64().map($from)
            }
        }
    )*};
}

wire_as_u64! {
    // Gauges are i64; two's-complement through u64 is lossless.
    i64: |v: &i64| *v as u64, |u| u as i64;
    Vid: |v: &Vid| v.0, Vid;
    Eid: |e: &Eid| e.0, Eid;
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_str(out, self)
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        cur.str_()
    }
}

impl Wire for Value {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_value(out, self);
        Ok(())
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        cur.value()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_bool(out, self.is_some());
        self.iter().try_for_each(|v| v.put(out))
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        cur.bool_()?.then(|| T::get(cur)).transpose()
    }
}

/// A list is a `u32` count plus its elements.
fn put_list<T>(
    out: &mut Vec<u8>,
    items: &[T],
    put: impl Fn(&T, &mut Vec<u8>) -> GdbResult<()>,
) -> GdbResult<()> {
    let count =
        u32::try_from(items.len()).map_err(|_| wire::frame_too_large("list", items.len()))?;
    wire::put_u32(out, count);
    items.iter().try_for_each(|item| put(item, out))
}

/// Read a list; `get` sees each element's index. The count is bounded by
/// the bytes left before anything is reserved (`Cur::list_len`): every
/// element of every wire list encodes to at least one byte.
fn get_list<T>(
    cur: &mut Cur<'_>,
    mut get: impl FnMut(u64, &mut Cur<'_>) -> GdbResult<T>,
) -> GdbResult<Vec<T>> {
    let count = cur.list_len("list")?;
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        out.push(get(i, cur)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        put_list(out, self, T::put)
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        get_list(cur, |_, cur| T::get(cur))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        Ok((A::get(cur)?, B::get(cur)?))
    }
}

/// A plain struct rides as its fields, in the order listed.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident),+ })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
                $( self.$f.put(out)?; )+
                Ok(())
            }
            fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
                Ok($ty { $( $f: Wire::get(cur)? ),+ })
            }
        }
    )*};
}

wire_struct! {
    LoadOptions { bulk, index_during_load }
    LoadStats { vertices, edges }
    EngineFeatures {
        name, system_type, storage, edge_traversal, optimized_adapter, async_writes,
        attribute_indexes, max_identifier_len
    }
    SpaceReport { components }
    EdgeRef { eid, other }
    VertexData { id, label, props }
    EdgeData { id, src, dst, label, props }
    QueryInstance { id, depth, k }
    RegistrySnapshot { captured_at_us, counters, gauges, hists }
    TraceRecord { id, worker, op_index, op_code, start_us, total_nanos, phases, origin, tail }
}

/// A field-less enum rides as one tag byte.
macro_rules! wire_enum {
    ($($ty:ident, $what:literal { $($tag:literal => $variant:ident),+ })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
                wire::put_u8(out, match self { $( $ty::$variant => $tag ),+ });
                Ok(())
            }
            fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
                match cur.u8()? {
                    $( $tag => Ok($ty::$variant), )+
                    t => Err(GdbError::Corrupt(format!("wire: unknown {} {t}", $what))),
                }
            }
        }
    )*};
}

wire_enum! {
    Direction, "direction" { 0 => In, 1 => Out, 2 => Both }
    WriteOp, "write op" { 0 => AddVertex, 1 => AddEdge, 2 => SetVertexProp, 3 => RemoveOwnEdge }
    TraceOrigin, "trace origin" { 0 => Client, 1 => Server }
}

/// A query rides as its paper number (`Q1` = 1).
impl Wire for QueryId {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_u8(out, self.number());
        Ok(())
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        let number = cur.u8()?;
        QueryId::ALL
            .get(number.wrapping_sub(1) as usize)
            .copied()
            .ok_or_else(|| GdbError::Corrupt(format!("wire: unknown query number {number}")))
    }
}

impl Wire for Op {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        match self {
            Op::Read(inst) => {
                wire::put_u8(out, 0);
                inst.put(out)
            }
            Op::Write(wop) => {
                wire::put_u8(out, 1);
                wop.put(out)
            }
        }
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        match cur.u8()? {
            0 => Ok(Op::Read(Wire::get(cur)?)),
            1 => Ok(Op::Write(Wire::get(cur)?)),
            t => Err(GdbError::Corrupt(format!("wire: unknown op tag {t}"))),
        }
    }
}

impl Wire for GdbError {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_error(out, self)
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        wire::get_error(cur)
    }
}

/// Canonical ids are positional, so a dataset ships without them and is
/// validated on arrival.
impl Wire for Dataset {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        self.name.put(out)?;
        put_list(out, &self.vertices, |v, out| {
            v.label.put(out)?;
            v.props.put(out)
        })?;
        put_list(out, &self.edges, |e, out| {
            e.src.put(out)?;
            e.dst.put(out)?;
            e.label.put(out)?;
            e.props.put(out)
        })
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        let data = Dataset {
            name: Wire::get(cur)?,
            vertices: get_list(cur, |id, cur| {
                Ok(DsVertex {
                    id,
                    label: Wire::get(cur)?,
                    props: Wire::get(cur)?,
                })
            })?,
            edges: get_list(cur, |id, cur| {
                Ok(DsEdge {
                    id,
                    src: Wire::get(cur)?,
                    dst: Wire::get(cur)?,
                    label: Wire::get(cur)?,
                    props: Wire::get(cur)?,
                })
            })?,
        };
        data.validate().map_err(GdbError::Corrupt)?;
        Ok(data)
    }
}

/// Log2 histograms ship sparsely: the populated bucket prefix, then the
/// scalar fields. Bucket counts above the highest populated index are zero
/// by construction, so nothing is lost.
impl Wire for HistSnapshot {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        let top = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        wire::put_u8(out, top as u8);
        for c in self.counts.iter().take(top) {
            wire::put_u64(out, *c);
        }
        for scalar in [self.count, self.sum, self.min, self.max] {
            wire::put_u64(out, scalar);
        }
        Ok(())
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        let top = cur.u8()? as usize;
        if top > BUCKETS {
            return Err(GdbError::Corrupt(format!(
                "wire: histogram bucket prefix {top} exceeds {BUCKETS}"
            )));
        }
        let mut h = HistSnapshot::default();
        for slot in h.counts.iter_mut().take(top) {
            *slot = cur.u64()?;
        }
        for scalar in [&mut h.count, &mut h.sum, &mut h.min, &mut h.max] {
            *scalar = cur.u64()?;
        }
        Ok(h)
    }
}

/// The phase vector carries its own length, so a peer built with a
/// different phase set is refused instead of misread.
impl Wire for PhaseNanos {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        wire::put_u8(out, PHASES as u8);
        for nanos in self.0 {
            wire::put_u64(out, nanos);
        }
        Ok(())
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        let np = cur.u8()? as usize;
        if np != PHASES {
            return Err(GdbError::Corrupt(format!(
                "wire: trace record has {np} phases, expected {PHASES}"
            )));
        }
        let mut phases = PhaseNanos::zero();
        for slot in phases.0.iter_mut() {
            *slot = cur.u64()?;
        }
        Ok(phases)
    }
}

/// A batch entry is a whole frame behind its own `u32` length, encoded in
/// place.
fn put_entry(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> GdbResult<()>,
) -> GdbResult<()> {
    wire::put_len_prefixed(out, "batch entry", u32::to_le_bytes, encode).map(drop)
}

/// Read a batch entry's frame, refusing the `barred` opcodes *before* the
/// caller recurses into it: a nested batch would make decode depth
/// attacker-controlled, and a `Hello` mid-stream would re-run the handshake.
fn get_entry<'a>(cur: &mut Cur<'a>, barred: &[(u8, &str)]) -> GdbResult<&'a [u8]> {
    let len = cur.u32()? as usize;
    let frame = cur.bytes(len, "batch entry")?;
    match barred.iter().find(|(op, _)| frame.first() == Some(op)) {
        Some((_, name)) => Err(GdbError::Corrupt(format!(
            "wire: {name} inside a batch entry"
        ))),
        None => Ok(frame),
    }
}

impl Wire for Request {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        put_entry(out, |out| self.encode_into(out))
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        let barred = [(req_op::ExecBatch, "ExecBatch"), (req_op::Hello, "Hello")];
        Request::decode(get_entry(cur, &barred)?)
    }
}

impl Wire for Response {
    fn put(&self, out: &mut Vec<u8>) -> GdbResult<()> {
        put_entry(out, |out| self.encode_into(out))
    }
    fn get(cur: &mut Cur<'_>) -> GdbResult<Self> {
        Response::decode(get_entry(cur, &[(rsp_op::BatchDone, "BatchDone")])?)
    }
}

// ----- the frame tables ----------------------------------------------------

/// How the server dispatches a request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A `GraphSnapshot` primitive: answered from a read view of the hosted
    /// engine, or from the connection's open transaction.
    Read,
    /// A `GraphDb` mutation primitive: applied under the engine's write
    /// path, or buffered into the connection's open transaction.
    Write,
    /// Handshake, lifecycle, workload, batch, introspection and
    /// transaction frames, each with its own handler.
    Control,
}

/// One row of a frame table, for code that enumerates the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The variant's name.
    pub name: &'static str,
    /// The first payload byte.
    pub opcode: u8,
}

/// Declare one direction's frames. A row is
/// `opcode Name column (field: Type, …)` or `… { field: Type, … }` or bare
/// for a frame without fields; fields are listed in wire order and encoded
/// by their type's `Wire` impl. The `column` is handed to the `extras`
/// macro with the row: a [`FrameKind`] for requests, the name of the typed
/// accessor for responses.
macro_rules! frames {
    (
        $(#[$em:meta])*
        enum $Enum:ident, $what:literal, mod $ops:ident, extras $extras:ident;
        $(
            $(#[$vm:meta])*
            $op:literal $name:ident $col:ident
            $( ( $( $tf:ident : $tty:ty ),+ ) )?
            $( { $( $(#[$fm:meta])* $f:ident : $fty:ty ),+ $(,)? } )?
        )*
    ) => {
        $(#[$em])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $Enum {
            $(
                $(#[$vm])*
                $name $( ( $( $tty ),+ ) )? $( { $( $(#[$fm])* $f: $fty ),+ } )?,
            )*
        }

        /// Each frame's opcode, under its variant's name.
        #[allow(non_upper_case_globals, dead_code)]
        mod $ops {
            $( pub const $name: u8 = $op; )*
        }

        impl $Enum {
            /// Every frame of this direction, in table order.
            pub const FRAMES: &'static [Frame] = &[
                $( Frame { name: stringify!($name), opcode: $op } ),*
            ];

            /// Encode into a fresh frame payload (see
            /// [`Self::encode_into`]).
            pub fn encode(&self) -> GdbResult<Vec<u8>> {
                let mut out = Vec::new();
                self.encode_into(&mut out)?;
                Ok(out)
            }

            /// Append the frame payload to `out` — a connection's reusable
            /// frame buffer, or a batch being built. Fails with a
            /// `FrameTooLarge` protocol error when any field cannot fit its
            /// u32 length prefix.
            pub fn encode_into(&self, out: &mut Vec<u8>) -> GdbResult<()> {
                match self {
                    $(
                        Self::$name $( ( $( $tf ),+ ) )? $( { $( $f ),+ } )? => {
                            wire::put_u8(out, $op);
                            $( $( Wire::put($tf, out)?; )+ )?
                            $( $( Wire::put($f, out)?; )+ )?
                        }
                    )*
                }
                Ok(())
            }

            /// Decode a frame payload. Rejects unknown opcodes, malformed
            /// fields and trailing bytes with [`GdbError::Corrupt`].
            pub fn decode(buf: &[u8]) -> GdbResult<Self> {
                let mut cur = Cur::new(buf);
                let frame = match cur.u8()? {
                    $(
                        $op => Self::$name
                            $( ( $( <$tty as Wire>::get(&mut cur)? ),+ ) )?
                            $( { $( $f: <$fty as Wire>::get(&mut cur)? ),+ } )?,
                    )*
                    op => {
                        return Err(GdbError::Corrupt(format!(
                            "wire: unknown {} op {op:#x}",
                            $what
                        )))
                    }
                };
                cur.finish()?;
                Ok(frame)
            }
        }

        $extras! {
            $( [$col $name $( ( $( $tf : $tty ),+ ) )? $( { $( $f : $fty ),+ } )?] )*
        }
    };
}

/// Request extras: the column is the frame's [`FrameKind`].
macro_rules! request_kinds {
    ($( [$kind:ident $name:ident $($fields:tt)*] )*) => {
        impl Request {
            /// The frame's name, as diagnostics print it.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Self::$name { .. } => stringify!($name), )*
                }
            }

            /// How the server dispatches this frame.
            pub fn kind(&self) -> FrameKind {
                match self {
                    $( Self::$name { .. } => FrameKind::$kind, )*
                }
            }
        }
    };
}

/// Response extras: the column names the accessor that unwraps the frame
/// into its fields (one field as itself, several as a tuple in wire order).
macro_rules! response_accessors {
    ($(
        [$acc:ident $name:ident
            $( ( $( $tf:ident : $tty:ty ),+ ) )?
            $( { $( $f:ident : $fty:ty ),+ } )?]
    )*) => {
        impl Response {
            /// Short kind name (the frame's name in the table), used in
            /// protocol-mismatch diagnostics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Self::$name { .. } => stringify!($name), )*
                }
            }

            $(
                #[doc = concat!(
                    "The fields of a [`Response::", stringify!($name),
                    "`]; any other frame is [`Response::mismatch`]."
                )]
                // A one-field row expands to a parenthesised type, not a tuple.
                #[allow(unused_parens)]
                pub fn $acc(self) -> GdbResult<( $( $( $tty ),+ )? $( $( $fty ),+ )? )> {
                    match self {
                        Self::$name $( ( $( $tf ),+ ) )? $( { $( $f ),+ } )? => {
                            Ok(( $( $( $tf ),+ )? $( $( $f ),+ )? ))
                        }
                        other => Err(other.mismatch(stringify!($name))),
                    }
                }
            )*
        }
    };
}

impl Response {
    /// The error for a response of the wrong type: the engine error itself
    /// when the server answered [`Response::Err`] (remote errors keep their
    /// variant), a protocol mismatch naming both frames otherwise.
    pub fn mismatch(self, expected: &str) -> GdbError {
        match self {
            Response::Err(e) => e,
            other => GdbError::Corrupt(format!(
                "protocol mismatch: expected {expected} response, got {}",
                other.kind()
            )),
        }
    }
}

frames! {
    /// A client→server message.
    enum Request, "request", mod req_op, extras request_kinds;

    /// Handshake; must be the first frame on a connection.
    0x01 Hello Control {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`PROTO_VERSION`].
        version: u16,
    }
    /// Replace the hosted engine with a fresh one from the server's factory
    /// and forget any loaded dataset / prepared workload.
    0x02 Reset Control
    /// Ship a dataset and bulk-load it into the hosted engine. The server
    /// retains the dataset so a later [`Request::Prepare`] can derive
    /// workload parameters from it.
    0x03 BulkLoad Control {
        /// Load options.
        opts: LoadOptions,
        /// The canonical dataset, shipped in full.
        data: Dataset,
    }
    /// Resolve workload parameters server-side: `Workload::choose(data,
    /// seed, slots)` against the retained dataset, resolved on the hosted
    /// engine. Required before [`Request::ExecOp`].
    0x04 Prepare Control {
        /// Workload seed (must match the driver's).
        seed: u64,
        /// Victim/pair slot count (must match the driver's).
        slots: u32,
    }
    /// Execute one driver op server-side in a single round trip.
    0x05 ExecOp Control {
        /// Issuing worker index (parameterizes writes).
        worker: u32,
        /// Op index within the worker's sequence.
        op_index: u64,
        /// The client's deterministic trace id for this op (0 = not
        /// traced). The server records its phase tree under this id so the
        /// client can stitch one cross-process trace per op.
        trace_id: u64,
        /// Read deadline in microseconds (0 = unbounded).
        timeout_micros: u64,
        /// Strict read pin: a snapshot-hosted server must serve this read
        /// from a read-your-writes pin (`snapshot()`) instead of the
        /// group-committed `snapshot_recent` cadence. Sequential replays
        /// set this so their traces stay deterministic; concurrent drivers
        /// leave it unset for the scalable pin fast path. Ignored by
        /// locked-mode servers and for writes.
        strict: bool,
        /// The op itself.
        op: Op,
    }
    /// Snapshot the server's `gm-obs` metrics registry. Always answered
    /// with [`Response::Stats`]; the snapshot is empty when the server runs
    /// with `GM_OBS=off`.
    0x06 GetStats Control
    /// Drain a copy of the server's trace flight recorder. Always answered
    /// with [`Response::Traces`]; the list is empty when the server runs
    /// with `GM_TRACE=off`.
    0x07 GetTraces Control
    /// Many requests in one frame: the server executes the entries strictly
    /// in order and answers with a single [`Response::BatchDone`] carrying
    /// one response per entry. Per-entry failures ride inside the batch as
    /// [`Response::Err`] entries, so one bad op cannot desync the stream.
    /// Entries may be any request except [`Request::Hello`] and a nested
    /// `ExecBatch` — the decoder rejects both, which also bounds decode
    /// recursion at one level.
    0x08 ExecBatch Control (entries: Vec<Request>)
    /// `GraphDb::features`.
    0x10 Features Read
    /// `GraphDb::resolve_vertex`.
    0x11 ResolveVertex Read (canonical: u64)
    /// `GraphDb::resolve_edge`.
    0x12 ResolveEdge Read (canonical: u64)
    /// `GraphDb::add_vertex`.
    0x13 AddVertex Write {
        /// Vertex label.
        label: String,
        /// Properties.
        props: Props,
    }
    /// `GraphDb::add_edge`.
    0x14 AddEdge Write {
        /// Source vertex (internal id).
        src: u64,
        /// Destination vertex (internal id).
        dst: u64,
        /// Edge label.
        label: String,
        /// Properties.
        props: Props,
    }
    /// `GraphDb::set_vertex_property`.
    0x15 SetVertexProp Write {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
    }
    /// `GraphDb::set_edge_property`.
    0x16 SetEdgeProp Write {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
    }
    /// `GraphDb::vertex_count` (`t` = read deadline in µs, 0 = unbounded).
    0x17 VertexCount Read {
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::edge_count`.
    0x18 EdgeCount Read {
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::edge_label_set`.
    0x19 EdgeLabelSet Read {
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::vertices_with_property`.
    0x1A VerticesWithProperty Read {
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::edges_with_property`.
    0x1B EdgesWithProperty Read {
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::edges_with_label`.
    0x1C EdgesWithLabel Read {
        /// Edge label.
        label: String,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::vertex` (Q14 materialization).
    0x1D GetVertex Read (v: u64)
    /// `GraphDb::edge` (Q15 materialization).
    0x1E GetEdge Read (e: u64)
    /// `GraphDb::remove_vertex`.
    0x1F RemoveVertex Write (v: u64)
    /// `GraphDb::remove_edge`.
    0x20 RemoveEdge Write (e: u64)
    /// `GraphDb::remove_vertex_property`.
    0x21 RemoveVertexProp Write {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
    }
    /// `GraphDb::remove_edge_property`.
    0x22 RemoveEdgeProp Write {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
    }
    /// `GraphSnapshot::for_each_incident`, answered with the collected
    /// visit. (Opcode `0x23`, once a `neighbors` frame, is retired.)
    0x24 VertexEdges Read {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Optional label filter.
        label: Option<String>,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::vertex_degree`.
    0x25 VertexDegree Read {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::vertex_edge_labels`.
    0x26 VertexEdgeLabels Read {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::scan_vertices`, materialized server-side.
    0x27 ScanVertices Read {
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::scan_edges`, materialized server-side.
    0x28 ScanEdges Read {
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::vertex_property`.
    0x29 VertexProperty Read {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
    }
    /// `GraphDb::edge_property`.
    0x2A EdgeProperty Read {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
    }
    /// `GraphDb::edge_endpoints`.
    0x2B EdgeEndpoints Read (e: u64)
    /// `GraphDb::edge_label`.
    0x2C EdgeLabel Read (e: u64)
    /// `GraphDb::vertex_label`.
    0x2D VertexLabel Read (v: u64)
    /// `GraphDb::degree_scan` — executed by the *hosted engine's* strategy,
    /// so per-engine physical differences survive the wire.
    0x2E DegreeScan Read {
        /// Direction.
        dir: Direction,
        /// Degree threshold.
        k: u64,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::distinct_neighbor_scan`.
    0x2F DistinctNeighborScan Read {
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    }
    /// `GraphDb::create_vertex_index`.
    0x30 CreateVertexIndex Write {
        /// Property name.
        prop: String,
    }
    /// `GraphDb::has_vertex_index`.
    0x31 HasVertexIndex Read {
        /// Property name.
        prop: String,
    }
    /// `GraphDb::space`.
    0x32 Space Read
    /// `GraphDb::sync`.
    0x33 Sync Write
    /// Probe the serving epoch: answered with [`Response::U64`] — the
    /// snapshot epoch a read would pin right now, `0` under locked hosting.
    /// The fleet coordinator min-reduces this across shards, mirroring
    /// `ShardedSource`.
    0x34 Epoch Control
    /// Open an epoch-pinned write transaction on this connection. Answered
    /// with [`Response::TxnBegun`]. Only snapshot-hosted servers support
    /// transactions; at most one may be open per connection. Until it
    /// commits or aborts, write primitives buffer into it and reads answer
    /// from its read-your-writes overlay.
    0x35 TxnBegin Control
    /// Validate and atomically publish the connection's open transaction.
    /// Answered with [`Response::TxnCommitted`], or
    /// [`Response::Err`]`(TxnConflict)` when another commit won the
    /// first-committer-wins race (the write set is discarded either way).
    0x36 TxnCommit Control
    /// Discard the connection's open transaction without publishing.
    /// Answered with [`Response::TxnAborted`].
    0x37 TxnAbort Control
}

frames! {
    /// A server→client message. [`Response::Err`] may answer any request.
    enum Response, "response", mod rsp_op, extras response_accessors;

    /// Handshake acknowledgement.
    0x80 HelloAck into_hello_ack {
        /// Server protocol version.
        version: u16,
        /// Hosted engine's display name.
        engine: String,
        /// Fleet identity when the server runs as one shard of a fleet:
        /// `(shard_id, fleet_size)`. `None` for standalone servers.
        shard: Option<(u32, u32)>,
    }
    /// Success with no payload.
    0x81 Unit into_unit
    /// A boolean.
    0x82 Bool into_bool (b: bool)
    /// A u64 (counts, cardinalities, degrees).
    0x83 U64 into_u64 (v: u64)
    /// An optional u64 (id resolution).
    0x84 OptU64 into_opt_u64 (v: Option<u64>)
    /// A list of ids (vertex or edge scans, filters).
    0x85 U64List into_u64_list (ids: Vec<u64>)
    /// A list of strings (label sets).
    0x86 StrList into_str_list (labels: Vec<String>)
    /// An optional value (property lookups / removals).
    0x87 OptValue into_opt_value (v: Option<Value>)
    /// An optional string (label lookups).
    0x88 OptStr into_opt_str (s: Option<String>)
    /// Optional edge endpoints.
    0x89 OptPair into_opt_pair (ends: Option<(u64, u64)>)
    /// Incident-edge list.
    0x8A EdgeRefs into_edge_refs (refs: Vec<EdgeRef>)
    /// Materialized vertex.
    0x8B OptVertex into_opt_vertex (v: Option<VertexData>)
    /// Materialized edge.
    0x8C OptEdge into_opt_edge (e: Option<EdgeData>)
    /// Bulk-load outcome.
    0x8D Load into_load (stats: LoadStats)
    /// Engine feature description.
    0x8E Features into_features (features: EngineFeatures)
    /// Space report.
    0x8F Space into_space (report: SpaceReport)
    /// An `ExecOp` completion: result cardinality, the server-side phase
    /// breakdown of the op, and the epoch of the snapshot that served a
    /// read. The phases let a remote run feed the driver's lock-wait
    /// accounting and split an op's latency into wire time vs server time.
    0x90 ExecDone into_exec_done {
        /// Result cardinality.
        card: u64,
        /// Nanoseconds the op spent waiting on engine locks server-side
        /// (the server's whole execution path reports through
        /// `gm_model::lockwait`).
        lock_wait: u64,
        /// Server-side engine execution nanoseconds.
        exec_nanos: u64,
        /// Server-side snapshot-pin nanoseconds.
        pin_nanos: u64,
        /// Server-side clone/publish nanoseconds.
        clone_nanos: u64,
        /// Serving epoch for snapshot-backed reads: `None` when the server
        /// executes under the shared lock, and for writes — they produce
        /// the next epoch, they don't observe one. The epoch is what lets a
        /// remote client assert that a scan's rows decode against exactly
        /// one graph version.
        epoch: Option<u64>,
    }
    /// The server's metrics-registry snapshot (answers
    /// [`Request::GetStats`]); its monotonic `captured_at_us` uptime stamp
    /// lets two snapshots diff into true interval rates client-side.
    0x91 Stats into_stats (snapshot: RegistrySnapshot)
    /// A copy of the server's trace flight recorder, oldest first (answers
    /// [`Request::GetTraces`]).
    0x92 Traces into_traces (records: Vec<TraceRecord>)
    /// Answers [`Request::ExecBatch`]: one response per entry, in order.
    /// Per-entry failures are [`Response::Err`] entries here, not a
    /// top-level error. A nested `BatchDone` entry is rejected.
    0x93 BatchDone into_batch_done (entries: Vec<Response>)
    /// Answers [`Request::TxnBegin`] with the epoch the transaction's reads
    /// are pinned to.
    0x94 TxnBegun into_txn_begun {
        /// The pinned read epoch.
        epoch: u64,
    }
    /// Answers [`Request::TxnCommit`].
    0x95 TxnCommitted into_txn_committed {
        /// Number of buffered write ops the commit replayed.
        ops: u64,
        /// The serving epoch after publication.
        epoch: u64,
    }
    /// Answers [`Request::TxnAbort`].
    0x96 TxnAborted into_txn_aborted {
        /// Number of buffered write ops discarded.
        ops: u64,
    }
    /// The request failed with this engine error (round-tripped losslessly;
    /// a transaction conflict is the distinct [`GdbError::TxnConflict`]).
    0xFF Err into_err (e: GdbError)
}

// ----- mutations --------------------------------------------------------

/// A mutation's frame: a [`FrameKind::Write`] row, or [`Request::BulkLoad`]
/// for Q1.
impl From<Mutation<'_>> for Request {
    fn from(m: Mutation<'_>) -> Request {
        match m {
            Mutation::BulkLoad(data, opts) => Request::BulkLoad {
                opts,
                data: data.into_owned(),
            },
            Mutation::AddVertex(label, props) => Request::AddVertex {
                label: label.into_owned(),
                props: props.into_owned(),
            },
            Mutation::AddEdge(src, dst, label, props) => Request::AddEdge {
                src: src.0,
                dst: dst.0,
                label: label.into_owned(),
                props: props.into_owned(),
            },
            Mutation::SetVertexProperty(v, name, value) => Request::SetVertexProp {
                v: v.0,
                name: name.into_owned(),
                value,
            },
            Mutation::SetEdgeProperty(e, name, value) => Request::SetEdgeProp {
                e: e.0,
                name: name.into_owned(),
                value,
            },
            Mutation::RemoveVertex(v) => Request::RemoveVertex(v.0),
            Mutation::RemoveEdge(e) => Request::RemoveEdge(e.0),
            Mutation::RemoveVertexProperty(v, name) => Request::RemoveVertexProp {
                v: v.0,
                name: name.into_owned(),
            },
            Mutation::RemoveEdgeProperty(e, name) => Request::RemoveEdgeProp {
                e: e.0,
                name: name.into_owned(),
            },
            Mutation::CreateVertexIndex(prop) => Request::CreateVertexIndex {
                prop: prop.into_owned(),
            },
            Mutation::Sync => Request::Sync,
        }
    }
}

impl Request {
    /// The mutation this frame carries — the inverse of
    /// `Request::from(Mutation)`; `None` for every frame that is not a
    /// mutation.
    pub fn into_mutation(self) -> Option<Mutation<'static>> {
        Some(match self {
            Request::BulkLoad { opts, data } => Mutation::BulkLoad(Cow::Owned(data), opts),
            Request::AddVertex { label, props } => {
                Mutation::AddVertex(Cow::Owned(label), Cow::Owned(props))
            }
            Request::AddEdge {
                src,
                dst,
                label,
                props,
            } => Mutation::AddEdge(Vid(src), Vid(dst), Cow::Owned(label), Cow::Owned(props)),
            Request::SetVertexProp { v, name, value } => {
                Mutation::SetVertexProperty(Vid(v), Cow::Owned(name), value)
            }
            Request::SetEdgeProp { e, name, value } => {
                Mutation::SetEdgeProperty(Eid(e), Cow::Owned(name), value)
            }
            Request::RemoveVertex(v) => Mutation::RemoveVertex(Vid(v)),
            Request::RemoveEdge(e) => Mutation::RemoveEdge(Eid(e)),
            Request::RemoveVertexProp { v, name } => {
                Mutation::RemoveVertexProperty(Vid(v), Cow::Owned(name))
            }
            Request::RemoveEdgeProp { e, name } => {
                Mutation::RemoveEdgeProperty(Eid(e), Cow::Owned(name))
            }
            Request::CreateVertexIndex { prop } => Mutation::CreateVertexIndex(Cow::Owned(prop)),
            Request::Sync => Mutation::Sync,
            _ => return None,
        })
    }
}

/// A mutation's answer frame.
impl From<Applied> for Response {
    fn from(out: Applied) -> Response {
        match out {
            Applied::Done => Response::Unit,
            Applied::Id(id) => Response::U64(id),
            Applied::Value(v) => Response::OptValue(v),
            Applied::Loaded(stats) => Response::Load(stats),
        }
    }
}

impl Response {
    /// The answer to a mutation's frame — the inverse of
    /// `Response::from(Applied)`; any other frame is [`Response::mismatch`].
    pub fn into_applied(self) -> GdbResult<Applied> {
        Ok(match self {
            Response::Unit => Applied::Done,
            Response::U64(id) => Applied::Id(id),
            Response::OptValue(v) => Applied::Value(v),
            Response::Load(stats) => Applied::Loaded(stats),
            other => return Err(other.mismatch("Unit, U64, OptValue or Load")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello {
                magic: MAGIC,
                version: PROTO_VERSION,
            },
            Request::Reset,
            Request::Prepare {
                seed: 42,
                slots: 16,
            },
            Request::ExecOp {
                worker: 3,
                op_index: 99,
                trace_id: 0xDEAD_BEEF_CAFE_0001,
                timeout_micros: 5_000_000,
                strict: false,
                op: Op::Read(QueryInstance {
                    id: QueryId::Q32,
                    depth: Some(3),
                    k: None,
                }),
            },
            Request::ExecOp {
                worker: 0,
                op_index: 0,
                trace_id: 0,
                timeout_micros: 0,
                strict: true,
                op: Op::Write(WriteOp::RemoveOwnEdge),
            },
            Request::VertexEdges {
                v: 7,
                dir: Direction::Both,
                label: Some("knows".into()),
                t: 123,
            },
            Request::DegreeScan {
                dir: Direction::In,
                k: 4,
                t: 0,
            },
            Request::VerticesWithProperty {
                name: "name".into(),
                value: Value::Str("ann".into()),
                t: 1,
            },
            Request::Space,
            Request::Sync,
            Request::GetStats,
            Request::GetTraces,
            Request::Epoch,
            Request::TxnBegin,
            Request::TxnCommit,
            Request::TxnAbort,
            Request::ExecBatch(vec![]),
            Request::ExecBatch(vec![
                Request::AddVertex {
                    label: "wl_vertex".into(),
                    props: vec![("wl_worker".into(), Value::Int(2))],
                },
                Request::AddEdge {
                    src: 11,
                    dst: 42,
                    label: "wl_edge".into(),
                    props: vec![],
                },
                Request::RemoveEdge(9),
                Request::Epoch,
            ]),
        ];
        for req in reqs {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn dataset_ships_whole() {
        let data = testkit::chain_dataset(40);
        let req = Request::BulkLoad {
            opts: LoadOptions::default(),
            data: data.clone(),
        };
        let bytes = req.encode().unwrap();
        match Request::decode(&bytes).unwrap() {
            Request::BulkLoad { data: back, .. } => {
                assert_eq!(back.name, data.name);
                assert_eq!(back.vertices, data.vertices);
                assert_eq!(back.edges, data.edges);
            }
            other => panic!("wrong request decoded: {other:?}"),
        }
    }

    #[test]
    fn response_round_trips() {
        use gm_model::{Eid, Vid};
        let rsps = vec![
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "linked(v2)".into(),
                shard: None,
            },
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "triple".into(),
                shard: Some((2, 4)),
            },
            Response::BatchDone(vec![]),
            Response::BatchDone(vec![
                Response::U64(1),
                Response::Err(GdbError::VertexNotFound(7)),
                Response::Unit,
            ]),
            Response::Unit,
            Response::Bool(true),
            Response::U64(7),
            Response::ExecDone {
                card: 12,
                epoch: Some(9),
                lock_wait: 1_250,
                exec_nanos: 48_000,
                pin_nanos: 700,
                clone_nanos: 3_000,
            },
            Response::ExecDone {
                card: 0,
                epoch: None,
                lock_wait: 0,
                exec_nanos: 0,
                pin_nanos: 0,
                clone_nanos: 0,
            },
            Response::OptU64(None),
            Response::OptU64(Some(3)),
            Response::U64List(vec![1, 2, 3]),
            Response::StrList(vec!["a".into(), "b".into()]),
            Response::OptValue(Some(Value::Float(1.5))),
            Response::OptStr(Some("knows".into())),
            Response::OptPair(Some((4, 5))),
            Response::EdgeRefs(vec![EdgeRef {
                eid: Eid(1),
                other: Vid(2),
            }]),
            Response::OptVertex(Some(VertexData {
                id: Vid(9),
                label: "person".into(),
                props: vec![("name".into(), Value::Str("ann".into()))],
            })),
            Response::OptEdge(Some(EdgeData {
                id: Eid(1),
                src: Vid(2),
                dst: Vid(3),
                label: "knows".into(),
                props: vec![],
            })),
            Response::Load(LoadStats {
                vertices: 10,
                edges: 20,
            }),
            Response::Space({
                let mut r = SpaceReport::default();
                r.add("node records", 4096);
                r
            }),
            Response::Stats(RegistrySnapshot::default()),
            Response::Traces(vec![]),
            Response::Traces(vec![
                TraceRecord {
                    id: 0x0123_4567_89AB_CDEF,
                    worker: 5,
                    op_index: 1_000,
                    op_code: 23,
                    start_us: 987_654,
                    total_nanos: 1_234_567,
                    phases: {
                        let mut p = PhaseNanos::zero();
                        p.set(gm_obs::Phase::EngineExec, 900_000);
                        p.set(gm_obs::Phase::WireIo, 300_000);
                        p
                    },
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
            ]),
            Response::Stats({
                let r = gm_obs::Registry::new();
                r.counter("net.ops").add(41);
                r.counter("shard.0.ops").add(7);
                r.gauge("mvcc.cow.epoch").set(12);
                r.gauge("negative").set(-9);
                let h = r.histogram("op_nanos");
                h.record(0);
                h.record(1_000);
                h.record(u64::MAX);
                r.snapshot()
            }),
            Response::TxnBegun { epoch: 42 },
            Response::TxnCommitted { ops: 9, epoch: 43 },
            Response::TxnAborted { ops: 3 },
            Response::Err(GdbError::TxnConflict("vertex v7".into())),
            Response::Err(GdbError::Poisoned("writer panicked".into())),
        ];
        for rsp in rsps {
            let bytes = rsp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), rsp, "{rsp:?}");
        }
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(GdbError::Corrupt(_))
        ));
        assert!(matches!(
            Response::decode(&[0x00]),
            Err(GdbError::Corrupt(_))
        ));
        assert!(matches!(Request::decode(&[]), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Reset.encode().unwrap();
        bytes.push(0xAB);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn mutation_query_number_decodes_but_is_flagged() {
        // Encoding a mutating QueryInstance inside Op::Read is representable
        // on the wire; the *server* rejects it (catalog::execute_read would
        // panic). Make sure decode itself stays total.
        let req = Request::ExecOp {
            worker: 0,
            op_index: 0,
            trace_id: 0,
            timeout_micros: 0,
            strict: false,
            op: Op::Read(QueryInstance::plain(QueryId::Q2)),
        };
        let back = Request::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn bad_query_number_rejected() {
        let mut bytes = Request::ExecOp {
            worker: 0,
            op_index: 0,
            trace_id: 0,
            timeout_micros: 0,
            strict: false,
            op: Op::Read(QueryInstance::plain(QueryId::Q8)),
        }
        .encode()
        .unwrap();
        // Patch the query number
        // (offset: op(1)+worker(4)+op_index(8)+trace(8)+t(8)+strict(1)+tag(1)).
        bytes[31] = 99;
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn corrupt_trace_records_rejected() {
        let rsp = Response::Traces(vec![TraceRecord {
            id: 7,
            worker: 1,
            op_index: 2,
            op_code: 8,
            start_us: 3,
            total_nanos: 4,
            phases: PhaseNanos::zero(),
            origin: TraceOrigin::Client,
            tail: false,
        }]);
        let good = rsp.encode().unwrap();
        assert_eq!(Response::decode(&good).unwrap(), rsp);
        // Patch the phase count (offset: op(1)+len(4)+id(8)+worker(4)+
        // op_index(8)+op_code(2)+start(8)+total(8)).
        let mut bad = good.clone();
        bad[43] = PHASES as u8 + 1;
        assert!(matches!(Response::decode(&bad), Err(GdbError::Corrupt(_))));
        // Patch the origin byte (phase count + PHASES u64s later).
        let mut bad = good.clone();
        bad[44 + PHASES * 8] = 9;
        assert!(matches!(Response::decode(&bad), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn names_and_kinds_come_from_the_table() {
        assert_eq!(Response::Unit.kind(), "Unit");
        assert_eq!(Response::BatchDone(vec![]).kind(), "BatchDone");
        assert_eq!(Request::Sync.name(), "Sync");
        assert_eq!(Request::Sync.kind(), FrameKind::Write);
        assert_eq!(Request::ScanEdges { t: 0 }.kind(), FrameKind::Read);
        assert_eq!(Request::ExecBatch(vec![]).kind(), FrameKind::Control);
        assert_eq!(Request::FRAMES.len(), 47);
        assert_eq!(Response::FRAMES.len(), 24);
    }

    #[test]
    fn accessors_unwrap_or_name_the_mismatch() {
        assert_eq!(Response::U64(7).into_u64(), Ok(7));
        assert_eq!(Response::Unit.into_unit(), Ok(()));
        assert_eq!(
            Response::TxnCommitted { ops: 9, epoch: 43 }.into_txn_committed(),
            Ok((9, 43))
        );
        // A remote engine error keeps its variant through any accessor.
        assert_eq!(
            Response::Err(GdbError::Timeout).into_u64(),
            Err(GdbError::Timeout)
        );
        match Response::Unit.into_u64() {
            Err(GdbError::Corrupt(why)) => {
                assert!(
                    why.contains("expected U64") && why.contains("got Unit"),
                    "{why}"
                )
            }
            other => panic!("expected a protocol mismatch, got {other:?}"),
        }
    }

    #[test]
    fn nested_batches_rejected() {
        // A batch inside a batch is representable by hand-crafting bytes but
        // must be refused: decode recursion depth stays at one.
        let inner = Request::ExecBatch(vec![Request::Reset]).encode().unwrap();
        let mut bytes = vec![0x08];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&inner);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));

        let hello = Request::Hello {
            magic: MAGIC,
            version: PROTO_VERSION,
        }
        .encode()
        .unwrap();
        let mut bytes = vec![0x08];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(hello.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&hello);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));

        let inner = Response::BatchDone(vec![Response::Unit]).encode().unwrap();
        let mut bytes = vec![0x93];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&inner);
        assert!(matches!(
            Response::decode(&bytes),
            Err(GdbError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_batch_rejected() {
        let bytes = Request::ExecBatch(vec![Request::Reset, Request::Sync])
            .encode()
            .unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "prefix of len {cut} accepted"
            );
        }
    }
}
