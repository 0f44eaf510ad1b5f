//! The framing discipline, observed from the stream's side: one `write`
//! per frame, frames that arrive together come back apart, and frames that
//! arrive in pieces come back whole.

use std::io::{self, Read, Write};

use gm_model::GdbError;
use gm_net::wire::{self, FrameReader, FrameWriter};
use gm_net::{Request, Response};

/// A sink that records every `write` call it receives.
#[derive(Default)]
struct CountingWrite {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A source that hands out at most `chunk` bytes per `read` and counts the
/// calls that returned data.
struct Chunked {
    bytes: Vec<u8>,
    at: usize,
    chunk: usize,
    reads: usize,
}

impl Chunked {
    fn new(bytes: Vec<u8>, chunk: usize) -> Chunked {
        Chunked {
            bytes,
            at: 0,
            chunk,
            reads: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = out.len().min(self.chunk).min(self.bytes.len() - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        self.reads += usize::from(n > 0);
        Ok(n)
    }
}

fn frames() -> Vec<Request> {
    vec![
        Request::Epoch,
        Request::VertexCount { t: 7 },
        Request::VertexEdges {
            v: 3,
            dir: gm_model::Direction::Both,
            label: Some("knows".into()),
            t: 0,
        },
        Request::ExecBatch(vec![Request::Sync, Request::RemoveEdge(9)]),
        Request::HasVertexIndex { prop: "".into() },
    ]
}

/// The frames of `reqs` back to back, as the free helper writes them.
fn encoded(reqs: &[Request]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for req in reqs {
        wire::write_frame(&mut bytes, &req.encode().unwrap()).unwrap();
    }
    bytes
}

#[test]
fn every_frame_is_one_write() {
    let mut sink = CountingWrite::default();
    wire::write_frame(&mut sink, b"").unwrap();
    assert_eq!(sink.writes, 1, "an empty payload is still one write");
    wire::write_frame(&mut sink, &[5; 10_000]).unwrap();
    assert_eq!(sink.writes, 2, "a payload larger than the read buffer too");
    assert_eq!(sink.bytes.len(), 4 + 4 + 10_000);

    let mut sink = CountingWrite::default();
    let mut writer = FrameWriter::new(&mut sink);
    let reqs = frames();
    for req in &reqs {
        writer.send(|out| req.encode_into(out)).unwrap();
    }
    writer.send(|_| Ok(())).unwrap();
    drop(writer);
    assert_eq!(sink.writes, reqs.len() + 1, "one write per frame");
    let mut want = encoded(&reqs);
    want.extend_from_slice(&[0; 4]);
    assert_eq!(sink.bytes, want, "the same bytes as the free helper");
}

#[test]
fn frames_that_arrive_together_come_back_apart() {
    let reqs = frames();
    let bytes = encoded(&reqs);
    assert!(bytes.len() < wire::READ_BUF);
    let mut source = Chunked::new(bytes, usize::MAX);
    let mut reader = FrameReader::new(&mut source);
    for req in &reqs {
        assert_eq!(&reader.recv(Request::decode).unwrap(), req);
    }
    assert!(matches!(reader.recv(Request::decode), Err(GdbError::Io(_))));
    drop(reader);
    assert_eq!(source.reads, 1, "{} frames, one read", reqs.len());
}

#[test]
fn a_frame_that_arrives_a_byte_at_a_time_decodes_identically() {
    let rsps = vec![
        Response::U64(42),
        Response::StrList(vec!["a".into(), "bc".into()]),
        Response::U64List((0..5_000).collect()),
        Response::Err(GdbError::Timeout),
    ];
    let mut bytes = Vec::new();
    for rsp in &rsps {
        wire::write_frame(&mut bytes, &rsp.encode().unwrap()).unwrap();
    }
    let total = bytes.len();
    let mut source = Chunked::new(bytes, 1);
    let mut reader = FrameReader::new(&mut source);
    for rsp in &rsps {
        assert_eq!(&reader.recv(Response::decode).unwrap(), rsp);
    }
    drop(reader);
    assert_eq!(source.reads, total);
}
