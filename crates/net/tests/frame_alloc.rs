//! The framing layer's allocation bounds, counted with
//! `gm_model::testkit`'s per-thread counting allocator: a length prefix
//! alone cannot make a reader allocate, and a warm connection frames,
//! sends, reads and decodes the op path's frames without touching the heap.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Cursor, Read, Write};
use std::rc::Rc;

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::testkit::{allocations, CountingAlloc};
use gm_model::GdbError;
use gm_net::wire::{self, FrameReader, FrameWriter};
use gm_net::{Request, Response};
use gm_workload::Op;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One direction of an in-memory connection: what one end writes, the
/// other reads. Pre-sized, so once warm it never grows.
#[derive(Clone)]
struct Pipe(Rc<RefCell<VecDeque<u8>>>);

impl Pipe {
    fn new() -> Pipe {
        Pipe(Rc::new(RefCell::new(VecDeque::with_capacity(4096))))
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.0.borrow_mut().read(out)
    }
}

/// The ROADMAP item 8 bug: before, a 200 MiB prefix made the reader
/// allocate 200 MiB before one payload byte had arrived.
#[test]
fn a_length_prefix_alone_does_not_size_the_read_buffer() {
    let mut bytes = (200u32 << 20).to_be_bytes().to_vec();
    bytes.extend_from_slice(&[0xAB; 16]);
    let short_stream = |got: Result<(), GdbError>| match got {
        Err(GdbError::Io(why)) => assert!(why.starts_with("reading frame payload"), "{why}"),
        other => panic!("expected the short stream to fail as Io, got {other:?}"),
    };

    let mut got = Ok(());
    let spent = allocations(|| got = wire::read_frame(&mut Cursor::new(&bytes)).map(drop));
    short_stream(got);
    assert!(spent.bytes < 1 << 20, "read_frame allocated {spent:?}");

    let mut got = Ok(());
    let spent = allocations(|| {
        let mut reader = FrameReader::new(Cursor::new(&bytes));
        got =
            reader.recv(|payload| panic!("a short payload of {} bytes was decoded", payload.len()));
    });
    short_stream(got);
    assert!(spent.bytes < 1 << 20, "FrameReader allocated {spent:?}");
    assert!(
        spent.bytes >= wire::READ_BUF as u64,
        "the count must include the reader's own buffer: {spent:?}"
    );
}

/// One client/server pair of framed halves over in-memory pipes.
struct Pair {
    client_out: FrameWriter<Pipe>,
    server_in: FrameReader<Pipe>,
    server_out: FrameWriter<Pipe>,
    client_in: FrameReader<Pipe>,
}

impl Pair {
    fn new() -> Pair {
        let (up, down) = (Pipe::new(), Pipe::new());
        Pair {
            client_out: FrameWriter::new(up.clone()),
            server_in: FrameReader::new(up),
            server_out: FrameWriter::new(down.clone()),
            client_in: FrameReader::new(down),
        }
    }

    /// One round trip: encode into, write, read, decode — on both ends.
    fn exchange(&mut self, req: &Request, rsp: &Response) {
        self.client_out.send(|out| req.encode_into(out)).unwrap();
        let got = self.server_in.recv(Request::decode).unwrap();
        assert_eq!(&got, req);
        self.server_out.send(|out| rsp.encode_into(out)).unwrap();
        let got = self.client_in.recv(Response::decode).unwrap();
        assert_eq!(&got, rsp);
    }
}

#[test]
fn a_warm_connection_frames_without_allocating() {
    let exec = Request::ExecOp {
        worker: 1,
        op_index: 77,
        trace_id: 0x5EED,
        timeout_micros: 60_000_000,
        strict: false,
        op: Op::Read(QueryInstance {
            id: QueryId::Q22,
            depth: Some(2),
            k: None,
        }),
    };
    let done = Response::ExecDone {
        card: 12,
        lock_wait: 40,
        exec_nanos: 1_800,
        pin_nanos: 90,
        clone_nanos: 0,
        epoch: Some(3),
    };
    let pairs = [
        (Request::Epoch, done.clone()),
        (exec, done),
        (Request::Epoch, Response::U64(3)),
    ];
    let mut conn = Pair::new();
    for (req, rsp) in &pairs {
        conn.exchange(req, rsp);
    }
    const ROUNDS: u64 = 1_000;
    let spent = allocations(|| {
        for _ in 0..ROUNDS {
            for (req, rsp) in &pairs {
                conn.exchange(req, rsp);
            }
        }
    });
    assert_eq!(
        spent.calls,
        0,
        "{spent:?} over {} warm frames",
        ROUNDS * 2 * pairs.len() as u64
    );
}
