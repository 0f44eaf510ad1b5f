//! Every dial bounds its handshake: a peer that takes the connection but
//! never answers `Hello` fails `Connection::connect`,
//! `RemoteEngine::connect` and `Fleet::connect` with `GdbError::Timeout`
//! after `HANDSHAKE_DEADLINE`, instead of hanging them.

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use gm_model::{testkit, GdbError};
use gm_net::client::HANDSHAKE_DEADLINE;
use gm_net::{Connection, Fleet, RemoteEngine};

#[test]
fn a_peer_that_never_answers_hello_times_every_dial_out() {
    // Bound but never accepted: the kernel completes the TCP handshake
    // into the backlog, and nobody ever reads the `Hello`.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let guard = HANDSHAKE_DEADLINE + Duration::from_secs(10);
    type Dial = fn(String) -> Option<GdbError>;
    let dials: [(&str, Dial); 3] = [
        ("Connection::connect", |a| Connection::connect(&a).err()),
        ("RemoteEngine::connect", |a| RemoteEngine::connect(&a).err()),
        ("Fleet::connect", |a| Fleet::connect(vec![a]).err()),
    ];
    let running: Vec<_> = dials
        .into_iter()
        .map(|(name, dial)| {
            let addr = addr.clone();
            (
                name,
                thread::spawn(move || testkit::within(guard, move || dial(addr))),
            )
        })
        .collect();
    for (name, dial) in running {
        let err = dial
            .join()
            .unwrap_or_else(|_| panic!("{name} hung past the guard"));
        assert_eq!(err, Some(GdbError::Timeout), "{name}");
    }
    drop(listener);
}
