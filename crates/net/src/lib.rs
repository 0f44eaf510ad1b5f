//! # gm-net — socket server front-end and remote-engine client
//!
//! The paper evaluates every system in its real client/server deployment:
//! queries cross a driver/wire boundary before touching the store, so
//! dispatch and serialization cost — a dominant term for sub-millisecond
//! microbenchmark ops — is part of every measurement. This crate adds that
//! boundary to graphmark:
//!
//! * [`wire`] — length-prefixed frames and a total (panic-free,
//!   allocation-guarded) byte codec, reusing the storage layer's `Value`
//!   encoding;
//! * [`proto`] — the versioned request/response message set: one request
//!   per [`GraphDb`](gm_model::GraphDb) primitive plus `ExecOp` frames that
//!   ship a whole driver op ([`QueryId`](gm_core::catalog::QueryId) + swept
//!   params) for server-side execution, and responses carrying result
//!   payloads or losslessly round-tripped
//!   [`GdbError`](gm_model::GdbError)s;
//! * [`server`] — a std-only (tokio-free) TCP server hosting any
//!   [`gm_workload::Host`] (a locked engine, a snapshot source, a sharded
//!   composite) thread-per-connection with naturally pipelined request
//!   handling, executing each `ExecOp` through the same
//!   [`gm_workload::execute_op`] the in-process driver runs; the
//!   `gm-server` binary hosts any registry engine from the command line;
//! * [`client`] — [`client::RemoteEngine`] implements `GraphDb` over the
//!   wire (drops into `catalog::execute` and the sequential `Runner`
//!   unchanged), and [`client::RemoteBackend`] plugs the same socket into
//!   the concurrent workload driver: one connection per worker, closed-loop
//!   / open-loop / bounded-overload pacing all unchanged
//!   (`run_backend(&RemoteBackend::setup(addr, &data, &cfg)?, …)`);
//! * [`fleet`] — [`fleet::Fleet`] coordinates N shard servers as one
//!   composite graph: hash-routed single-shard ops, ghost-corrected
//!   scatter-gather reads, and client-side write batching over pipelined
//!   per-worker connections ([`fleet::FleetBackend`]).
//!
//! Determinism contract: a read-only workload driven through a
//! [`client::RemoteBackend`] over loopback produces per-op results
//! identical to the in-process sequential replay — enforced for every
//! engine by `tests/loopback.rs`.

pub mod client;
pub mod fleet;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Connection, RemoteBackend, RemoteEngine};
pub use fleet::{Fleet, FleetBackend, FLEET};
pub use proto::{Request, Response, MAGIC, PROTO_VERSION};
pub use server::{EngineFactory, HostFactory, Server, ServerHandle};
