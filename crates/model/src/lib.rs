//! # gm-model — data model and engine API for graphmark
//!
//! This crate defines everything that the benchmark framework, the traversal
//! layer and the seven storage engines share:
//!
//! * [`Value`] — the attributed-graph property value type;
//! * [`Json`](json::Json) — a small, dependency-free JSON document type with
//!   parser and printer (GraphSON is plain JSON);
//! * [`Dataset`] — the canonical in-memory representation of a graph dataset,
//!   produced by the generators in `gm-datasets` and consumed by
//!   [`GraphDb::bulk_load`];
//! * [`GraphDb`] — the engine trait; the Rust analogue of a TinkerPop/Gremlin
//!   adapter. All 35 microbenchmark queries and the 13 complex queries of the
//!   paper decompose into calls on this trait;
//! * [`QueryCtx`] — cooperative deadline/cancellation context threaded through
//!   every read/traversal operation (the paper's 2-hour timeout, scaled down);
//! * [`fxmap`] — a tiny FxHash-style hasher so engines get fast integer-keyed
//!   maps without external dependencies.
//!
//! The design rule of the whole workspace is enforced by this crate's API:
//! **one trait, physical diversity**. Engines differ only in how they lay the
//! data out; the queries that run on top of them are byte-for-byte the same.

pub mod api;
pub mod ctx;
pub mod dataset;
pub mod error;
pub mod forward;
pub mod fxmap;
pub mod graphson;
pub mod ids;
pub mod interner;
pub mod json;
pub mod lockorder;
pub mod lockwait;
pub mod testkit;
pub mod value;

pub use api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
pub use ctx::QueryCtx;
pub use dataset::{Dataset, DsEdge, DsVertex};
pub use error::{GdbError, GdbResult};
/// The workspace's one latency formatter, defined beside the histograms in
/// `gm-obs` and re-exported for the crates above the model.
pub use gm_obs::format_nanos;
pub use ids::{Eid, Vid};
pub use interner::Interner;
pub use value::{Props, Value};
