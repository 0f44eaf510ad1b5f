//! Length-prefixed framing and the byte-level codec.
//!
//! Every message on a gm-net socket is one **frame**: a 4-byte big-endian
//! payload length followed by the payload. Inside a payload, fields use the
//! fixed little-endian / length-prefixed encodings below; [`Value`]s reuse
//! the tag-prefixed codec the storage engines already serialize records with
//! (`gm_storage::valcodec`), so the wire format and the on-disk format can
//! never drift apart.
//!
//! # I/O discipline
//!
//! Both ends of a connection (the client's `Connection`, the server's
//! per-connection loop) frame through one [`FrameWriter`] and one
//! [`FrameReader`], which own the connection's buffers:
//!
//! * **one `write` per frame** — the payload is encoded straight into the
//!   writer's reusable buffer behind four reserved bytes, the length is
//!   patched in, and prefix + payload leave in a single `write_all`;
//! * **buffered reads** — the read half sits behind a fixed
//!   [`READ_BUF`]-byte `BufReader`, so a frame that has arrived whole costs
//!   one `read`, and several pipelined frames can share one; a payload
//!   larger than the buffer bypasses it;
//! * **no per-frame allocation once warm** — the payload is read into the
//!   reader's reusable buffer and decoded from that slice. Memory follows
//!   the bytes that actually arrive, never the length a peer claims (a
//!   200 MiB prefix followed by EOF costs a few bytes, not 200 MiB), and a
//!   buffer that grew past 64 KiB for one large frame (a `BulkLoad`, a
//!   whole-graph scan answer) is released once that frame is done.
//!
//! A transport failure maps to [`GdbError::Timeout`] when a socket deadline
//! fired and to [`GdbError::Io`] otherwise. [`write_frame`] / [`read_frame`]
//! are the same path for one frame over a caller's stream.
//!
//! Decoding is **total**: truncated or corrupt input is rejected with
//! [`GdbError::Corrupt`] — never a panic, never an over-allocation (element
//! counts are validated against the bytes actually present before any
//! buffer is reserved). The property tests in `tests/prop_wire.rs` fuzz
//! exactly this contract.

use std::io::{self, BufReader, Read, Write};

use gm_model::{GdbError, GdbResult, Props, Value};
use gm_storage::valcodec;

/// Hard cap on one frame's payload. Large enough for a bulk-loaded dataset
/// at bench scales, small enough that a corrupt length prefix cannot make
/// the peer allocate unbounded memory.
pub const MAX_FRAME: usize = 256 << 20;

/// Capacity of a connection's read buffer — a constant, not a knob. Every
/// request and response of the op path fits in it many times over.
pub const READ_BUF: usize = 8 << 10;

/// A connection buffer that grew beyond this for one frame is released
/// once that frame is done, so one bulk frame does not pin its size for
/// the connection's lifetime. Op-path frames are tens of bytes and a fleet
/// write batch a few KiB; what is larger (a dataset, a whole-graph scan
/// answer) is rare enough to allocate per frame. At 1 MiB the control
/// connection kept `wire_point`'s `BulkLoad` buffer on both ends for the
/// whole run: +1 MiB of peak RSS, measured.
const KEEP_BUF: usize = 64 << 10;

/// The protocol error for a payload, string, or list whose length cannot be
/// represented in its u32 wire prefix. Truncating with `as u32` instead
/// would silently desync the stream: the peer would read a frame boundary
/// in the middle of the payload.
pub fn frame_too_large(what: &str, len: usize) -> GdbError {
    GdbError::Invalid(format!(
        "FrameTooLarge: {what} of {len} bytes does not fit a u32 length prefix"
    ))
}

/// A transport failure as the caller sees it: a socket deadline that fired
/// (`WouldBlock` from a timed-out blocking socket on Unix, `TimedOut`
/// elsewhere) is [`GdbError::Timeout`]; anything else is [`GdbError::Io`]
/// naming the step that failed.
fn transport(what: &str, e: io::Error) -> GdbError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => GdbError::Timeout,
        _ => GdbError::Io(format!("{what}: {e}")),
    }
}

/// Append a length-prefixed section to `out`: reserve four bytes, let
/// `body` append, then patch the body's length in front of it with
/// `prefix` (big-endian for frames, little-endian for batch entries).
/// Returns the body's length.
pub(crate) fn put_len_prefixed(
    out: &mut Vec<u8>,
    what: &str,
    prefix: fn(u32) -> [u8; 4],
    body: impl FnOnce(&mut Vec<u8>) -> GdbResult<()>,
) -> GdbResult<usize> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out)?;
    let len = out.len() - at - 4;
    let wire_len = u32::try_from(len).map_err(|_| frame_too_large(what, len))?;
    if let Some(slot) = out.get_mut(at..at + 4) {
        slot.copy_from_slice(&prefix(wire_len));
    }
    Ok(len)
}

/// The one send path: encode a frame into `buf` (prefix + the payload
/// `encode` appends) and hand it to `w` in a single `write_all`. A failed
/// encode writes nothing.
fn put_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> GdbResult<()>,
) -> GdbResult<()> {
    buf.clear();
    let len = put_len_prefixed(buf, "frame payload", u32::to_be_bytes, encode)?;
    if len > MAX_FRAME {
        return Err(GdbError::Invalid(format!(
            "frame payload of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    w.write_all(buf)
        .and_then(|()| w.flush())
        .map_err(|e| transport("writing frame", e))
}

/// The one receive path: read one frame's payload into `payload`
/// (replacing its contents). A length beyond `cap` is refused with
/// [`GdbError::Corrupt`] before anything is read or reserved for it; the
/// payload is read through `take(len)`, so the buffer grows only with bytes
/// that actually arrive.
fn get_frame(r: &mut impl Read, cap: usize, payload: &mut Vec<u8>) -> GdbResult<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)
        .map_err(|e| transport("reading frame length", e))?;
    let len = u32::from_be_bytes(len) as usize;
    if len > cap {
        return Err(GdbError::Corrupt(format!(
            "frame length {len} exceeds the {cap}-byte cap on this frame"
        )));
    }
    payload.clear();
    let got = r
        .take(len as u64)
        .read_to_end(payload)
        .map_err(|e| transport("reading frame payload", e))?;
    if got < len {
        return Err(GdbError::Io(format!(
            "reading frame payload: stream ended after {got} of {len} bytes"
        )));
    }
    Ok(())
}

/// Drop a buffer that one large frame grew past [`KEEP_BUF`].
fn release_if_grown(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP_BUF {
        *buf = Vec::new();
    }
}

/// The write half of a framed connection: one reusable buffer, one `write`
/// per frame.
pub struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Frame writes to `inner`.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            buf: Vec::new(),
        }
    }

    /// Send one frame whose payload `encode` appends to the connection's
    /// buffer (e.g. `|out| req.encode_into(out)`). An `encode` error is
    /// returned as is and nothing is sent.
    pub fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> GdbResult<()>) -> GdbResult<()> {
        let sent = put_frame(&mut self.inner, &mut self.buf, encode);
        release_if_grown(&mut self.buf);
        sent
    }

    /// The stream frames are written to.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

/// The read half of a framed connection: a [`READ_BUF`]-byte `BufReader`
/// and one reusable payload buffer.
pub struct FrameReader<R> {
    inner: BufReader<R>,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Frame reads from `inner`.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner: BufReader::with_capacity(READ_BUF, inner),
            buf: Vec::new(),
        }
    }

    /// Read the next frame (up to [`MAX_FRAME`]) and `decode` its payload in
    /// place (e.g. `Response::decode`). A clean EOF before the length prefix
    /// is a [`GdbError::Io`]; a fired socket deadline is
    /// [`GdbError::Timeout`].
    pub fn recv<T>(&mut self, decode: impl FnOnce(&[u8]) -> GdbResult<T>) -> GdbResult<T> {
        self.recv_within(MAX_FRAME, decode)
    }

    /// [`FrameReader::recv`] under a caller-chosen cap on the payload
    /// length (the server reads a connection's first frame under
    /// `MAX_HELLO_FRAME`).
    pub(crate) fn recv_within<T>(
        &mut self,
        cap: usize,
        decode: impl FnOnce(&[u8]) -> GdbResult<T>,
    ) -> GdbResult<T> {
        let got = get_frame(&mut self.inner, cap, &mut self.buf).and_then(|()| decode(&self.buf));
        release_if_grown(&mut self.buf);
        got
    }
}

/// Write one frame (length prefix + payload) to `w` in one `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> GdbResult<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    put_frame(w, &mut buf, |out| {
        out.extend_from_slice(payload);
        Ok(())
    })
}

/// Read one frame's payload from `r`, consuming exactly that frame's bytes
/// (so it is safe on an unbuffered stream the caller keeps using). A clean
/// EOF before the first length byte is a [`GdbError::Io`]; a length beyond
/// [`MAX_FRAME`] is a protocol violation ([`GdbError::Corrupt`]).
pub fn read_frame(r: &mut impl Read) -> GdbResult<Vec<u8>> {
    let mut payload = Vec::new();
    get_frame(r, MAX_FRAME, &mut payload)?;
    Ok(payload)
}

// ----- encoders ------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (LE).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (LE).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (LE).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` (one byte, 0/1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append a length-prefixed UTF-8 string. Fails with a `FrameTooLarge`
/// protocol error (instead of truncating the prefix) when the string cannot
/// fit its u32 length.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> GdbResult<()> {
    let len = u32::try_from(s.len()).map_err(|_| frame_too_large("string", s.len()))?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Append a [`Value`] in the storage codec's tag-prefixed format.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    valcodec::encode_value(out, v);
}

/// Append a property list (count + name/value pairs).
pub fn put_props(out: &mut Vec<u8>, props: &Props) -> GdbResult<()> {
    let count = u32::try_from(props.len()).map_err(|_| frame_too_large("props", props.len()))?;
    put_u32(out, count);
    for (name, value) in props {
        put_str(out, name)?;
        put_value(out, value);
    }
    Ok(())
}

// ----- decoder -------------------------------------------------------------

/// Bounds-checked cursor over a frame payload. Every accessor fails with
/// [`GdbError::Corrupt`] instead of panicking when the input is truncated
/// or malformed.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(what: &str) -> GdbError {
        GdbError::Corrupt(format!("wire: truncated {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> GdbResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::truncated(what))?;
        // gm-check: allow-panic(slice range is the checked_add-validated [pos, end] window)
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// [`Cur::take`] with a compile-time length, for the fixed-width scalar
    /// decoders: the array conversion is checked by construction instead of
    /// leaning on `try_into().unwrap()` at every call site.
    fn take_n<const N: usize>(&mut self, what: &str) -> GdbResult<[u8; N]> {
        let bytes = self.take(N, what)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> GdbResult<u8> {
        let [b] = self.take_n::<1>("u8")?;
        Ok(b)
    }

    /// Read a `u16` (LE).
    pub fn u16(&mut self) -> GdbResult<u16> {
        Ok(u16::from_le_bytes(self.take_n("u16")?))
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> GdbResult<u32> {
        Ok(u32::from_le_bytes(self.take_n("u32")?))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> GdbResult<u64> {
        Ok(u64::from_le_bytes(self.take_n("u64")?))
    }

    /// Read a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool_(&mut self) -> GdbResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(GdbError::Corrupt(format!("wire: invalid bool byte {b}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> GdbResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| GdbError::Corrupt("wire: string is not UTF-8".into()))
    }

    /// Read `n` raw bytes (length-prefixed sub-frames, e.g. `ExecBatch`
    /// entries).
    pub fn bytes(&mut self, n: usize, what: &str) -> GdbResult<&'a [u8]> {
        self.take(n, what)
    }

    /// Read a [`Value`].
    pub fn value(&mut self) -> GdbResult<Value> {
        let mut pos = self.pos;
        let v = valcodec::decode_value(self.buf, &mut pos)
            .ok_or_else(|| GdbError::Corrupt("wire: malformed value".into()))?;
        self.pos = pos;
        Ok(v)
    }

    /// Read a property list.
    pub fn props(&mut self) -> GdbResult<Props> {
        let count = self.list_len("props")?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let name = self.str_()?;
            let value = self.value()?;
            out.push((name, value));
        }
        Ok(out)
    }

    /// Read a list length and validate it against the bytes actually left:
    /// every element of every wire list encodes to at least one byte, so a
    /// count beyond `remaining()` can only come from corrupt input — reject
    /// it *before* any allocation is sized from it.
    pub fn list_len(&mut self, what: &str) -> GdbResult<usize> {
        let count = self.u32()? as usize;
        if count > self.remaining() {
            return Err(GdbError::Corrupt(format!(
                "wire: {what} count {count} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Assert the payload is fully consumed (frames carry no trailing junk).
    pub fn finish(self) -> GdbResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(GdbError::Corrupt(format!(
                "wire: {} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ----- GdbError round-trip -------------------------------------------------

/// Encode a [`GdbError`] (tag + payload). Every variant round-trips
/// losslessly so a remote failure surfaces client-side as the *same* error,
/// not a generic I/O failure.
pub fn put_error(out: &mut Vec<u8>, e: &GdbError) -> GdbResult<()> {
    match e {
        GdbError::Timeout => put_u8(out, 0),
        GdbError::VertexNotFound(id) => {
            put_u8(out, 1);
            put_u64(out, *id);
        }
        GdbError::EdgeNotFound(id) => {
            put_u8(out, 2);
            put_u64(out, *id);
        }
        GdbError::Unsupported(s) => {
            put_u8(out, 3);
            put_str(out, s)?;
        }
        GdbError::Corrupt(s) => {
            put_u8(out, 4);
            put_str(out, s)?;
        }
        GdbError::Invalid(s) => {
            put_u8(out, 5);
            put_str(out, s)?;
        }
        GdbError::ResourceExhausted(s) => {
            put_u8(out, 6);
            put_str(out, s)?;
        }
        GdbError::Io(s) => {
            put_u8(out, 7);
            put_str(out, s)?;
        }
        GdbError::Poisoned(s) => {
            put_u8(out, 8);
            put_str(out, s)?;
        }
        GdbError::TxnConflict(s) => {
            put_u8(out, 9);
            put_str(out, s)?;
        }
    }
    Ok(())
}

/// Decode a [`GdbError`].
pub fn get_error(cur: &mut Cur<'_>) -> GdbResult<GdbError> {
    Ok(match cur.u8()? {
        0 => GdbError::Timeout,
        1 => GdbError::VertexNotFound(cur.u64()?),
        2 => GdbError::EdgeNotFound(cur.u64()?),
        3 => GdbError::Unsupported(cur.str_()?),
        4 => GdbError::Corrupt(cur.str_()?),
        5 => GdbError::Invalid(cur.str_()?),
        6 => GdbError::ResourceExhausted(cur.str_()?),
        7 => GdbError::Io(cur.str_()?),
        8 => GdbError::Poisoned(cur.str_()?),
        9 => GdbError::TxnConflict(cur.str_()?),
        t => return Err(GdbError::Corrupt(format!("wire: unknown GdbError tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut sink = Vec::new();
        write_frame(&mut sink, b"hello").unwrap();
        write_frame(&mut sink, b"").unwrap();
        let mut rd = Cursor::new(sink);
        assert_eq!(read_frame(&mut rd).unwrap(), b"hello");
        assert_eq!(read_frame(&mut rd).unwrap(), b"");
        assert!(matches!(read_frame(&mut rd), Err(GdbError::Io(_))));
    }

    #[test]
    fn oversize_frame_length_rejected() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut rd = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut rd), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_is_io_not_panic() {
        // Length says 100, only 3 bytes follow.
        let mut bytes = 100u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut rd = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut rd), Err(GdbError::Io(_))));
    }

    #[test]
    fn one_large_frame_does_not_pin_its_buffer() {
        let big = vec![7u8; KEEP_BUF + 1];
        let mut sink = Vec::new();
        write_frame(&mut sink, &big).unwrap();
        write_frame(&mut sink, b"small").unwrap();
        let mut rd = FrameReader::new(Cursor::new(sink));
        assert_eq!(rd.recv(|p| Ok(p.len())).unwrap(), big.len());
        assert_eq!(rd.buf.capacity(), 0, "released after the large frame");
        assert_eq!(rd.recv(|p| Ok(p.to_vec())).unwrap(), b"small");
        assert!(rd.buf.capacity() > 0, "a small frame's buffer is kept");

        let mut w = FrameWriter::new(Vec::new());
        w.send(|out| {
            out.extend_from_slice(&big);
            Ok(())
        })
        .unwrap();
        assert_eq!(w.buf.capacity(), 0, "released after the large frame");
        w.send(|out| {
            out.push(1);
            Ok(())
        })
        .unwrap();
        assert!(w.buf.capacity() > 0, "a small frame's buffer is kept");
    }

    #[test]
    fn a_failed_encode_sends_nothing() {
        let mut w = FrameWriter::new(Vec::new());
        let sent = w.send(|out| {
            out.push(1);
            Err(frame_too_large("string", 1))
        });
        assert!(matches!(sent, Err(GdbError::Invalid(_))));
        assert!(w.inner.is_empty());
    }

    #[test]
    fn fired_deadlines_are_timeouts() {
        use io::ErrorKind::*;
        for kind in [WouldBlock, TimedOut] {
            assert_eq!(transport("reading", kind.into()), GdbError::Timeout);
        }
        assert!(matches!(
            transport("reading", ConnectionReset.into()),
            GdbError::Io(why) if why.starts_with("reading: ")
        ));
    }

    #[test]
    fn scalar_round_trips() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 512);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 3);
        put_bool(&mut out, true);
        put_str(&mut out, "héllo ☃").unwrap();
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u8().unwrap(), 7);
        assert_eq!(cur.u16().unwrap(), 512);
        assert_eq!(cur.u32().unwrap(), 70_000);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 3);
        assert!(cur.bool_().unwrap());
        assert_eq!(cur.str_().unwrap(), "héllo ☃");
        cur.finish().unwrap();
    }

    #[test]
    fn value_and_props_round_trip() {
        let props: Props = vec![
            ("s".into(), Value::Str("abc".into())),
            ("i".into(), Value::Int(-42)),
            ("f".into(), Value::Float(2.5)),
            ("b".into(), Value::Bool(false)),
            ("n".into(), Value::Null),
        ];
        let mut out = Vec::new();
        put_props(&mut out, &props).unwrap();
        let mut cur = Cur::new(&out);
        let back = cur.props().unwrap();
        cur.finish().unwrap();
        // Compare variant-exactly (Value's PartialEq treats Int(2) ==
        // Float(2.0); the codec must be stricter than that).
        assert_eq!(back.len(), props.len());
        for ((an, av), (bn, bv)) in back.iter().zip(props.iter()) {
            assert_eq!(an, bn);
            assert_eq!(av.type_tag(), bv.type_tag());
            assert_eq!(av, bv);
        }
    }

    /// Satellite requirement: every `GdbError` variant must round-trip to
    /// the same variant — a remote error never collapses into a generic
    /// I/O error.
    #[test]
    fn every_error_variant_round_trips() {
        let all = vec![
            GdbError::Timeout,
            GdbError::VertexNotFound(17),
            GdbError::EdgeNotFound(u64::MAX),
            GdbError::Unsupported("no vertex indexes".into()),
            GdbError::Corrupt("bad page".into()),
            GdbError::Invalid("empty label".into()),
            GdbError::ResourceExhausted("bitmap cap".into()),
            GdbError::Io("disk gone".into()),
            GdbError::Poisoned("worker 3 panicked".into()),
            GdbError::TxnConflict("vertex v7 written since epoch 4".into()),
        ];
        for e in &all {
            let mut out = Vec::new();
            put_error(&mut out, e).unwrap();
            let mut cur = Cur::new(&out);
            let back = get_error(&mut cur).unwrap();
            cur.finish().unwrap();
            assert_eq!(&back, e, "variant must survive the wire");
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(e),
                "same variant, not just equal payloads"
            );
        }
    }

    /// Satellite requirement: a string whose length cannot fit the u32
    /// prefix fails with the `FrameTooLarge` protocol error instead of
    /// silently truncating the prefix and desyncing the stream. (Allocating
    /// a real >4 GiB string is not viable in a unit test; the checked
    /// conversion is exercised through the helper the encoders share.)
    #[test]
    fn oversize_length_is_frame_too_large() {
        let e = frame_too_large("string", u32::MAX as usize + 1);
        match e {
            GdbError::Invalid(why) => {
                assert!(why.contains("FrameTooLarge"), "{why}");
                assert!(why.contains("4294967296"), "{why}");
            }
            other => panic!("expected Invalid(FrameTooLarge), got {other}"),
        }
        // In-range lengths must keep succeeding.
        let mut out = Vec::new();
        put_str(&mut out, "fits").unwrap();
        put_props(&mut out, &vec![("k".into(), Value::Int(1))]).unwrap();
    }

    #[test]
    fn truncation_never_panics() {
        let mut out = Vec::new();
        put_str(&mut out, "some payload").unwrap();
        put_u64(&mut out, 9);
        put_props(&mut out, &vec![("k".into(), Value::Int(1))]).unwrap();
        for cut in 0..out.len() {
            let mut cur = Cur::new(&out[..cut]);
            // Whatever partial reads succeed, nothing may panic and the
            // final field must fail.
            let _ = cur.str_().and_then(|_| cur.u64()).and_then(|_| cur.props());
        }
    }

    #[test]
    fn absurd_list_count_rejected_before_allocation() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // claims 4 billion props
        let mut cur = Cur::new(&out);
        assert!(matches!(cur.props(), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut out = Vec::new();
        put_u8(&mut out, 1);
        put_u8(&mut out, 2);
        let mut cur = Cur::new(&out);
        cur.u8().unwrap();
        assert!(matches!(cur.finish(), Err(GdbError::Corrupt(_))));
    }
}
